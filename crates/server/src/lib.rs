//! `segidx-server`: a pipelined TCP front-end over the concurrent segment
//! index service.
//!
//! The library the rest of the workspace exposes is embeddable; this crate
//! is the network story. A [`Server`] binds a TCP listener, and every
//! accepted connection speaks a small textual query language
//! (`INSERT RECT … ID …`, `DELETE ID … RECT …`, `SEARCH WINDOW …`,
//! `STAB POINT …`, `NEAREST POINT … K …`, plus `FLUSH`/`PING`/`STATS`/
//! `METRICS`) carried in length-prefixed binary frames — or bare
//! newline-terminated lines, so a human with `netcat` can drive it.
//!
//! The design goal is *pipelining at the cost of the index calls*: a
//! connection is one thread, and its unit of work is the burst — what one
//! `read` returned. Per burst segment it pins one snapshot, submits every
//! write as one batch, answers the reads from the pin while the group
//! commit runs on the index writer thread, then waits on the commit
//! tickets ([`CommitTicket::wait`]), splices `OK epoch=…` into the holes
//! the writes left, and sends every reply with one `write` (a long burst
//! without writes, one per 128 replies). A connection
//! with thousands of in-flight writes is still one thread, never one per
//! write, and the writer thread runs no connection code. See the `conn`
//! module for the burst rule and what a client may rely on, and [`frame`]
//! for the wire format.
//!
//! [`CommitTicket::wait`]: segidx_concurrent::CommitTicket::wait
//!
//! ```no_run
//! use segidx_server::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr());
//! // …point clients (or `netcat`) at it…
//! server.shutdown();
//! ```

pub(crate) mod conn;
pub mod frame;
pub mod lexer;
pub mod parser;
pub mod server;
pub mod telemetry;

pub use frame::{
    encode_request, encode_response, Frame, FrameDecoder, FrameError, Mode, DEFAULT_MAX_FRAME,
};
pub use parser::{parse, ParseError, Statement};
pub use server::{Server, ServerConfig, DIMS};
pub use telemetry::{ConnStats, ServerStats};
