//! Empty stand-in: `perq-proto` declares this dependency but imports nothing from it.
