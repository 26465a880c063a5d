//! Blocking TCP transport built on the standard library alone (no
//! registry I/O deps — the same offline constraint as `vendor/`).
//!
//! # Threads
//!
//! [`serve`] runs the accept loop in the calling thread and gives every
//! accepted connection two threads of its own:
//!
//! * a **reader** blocks in `read`, cuts complete frames out with
//!   [`crate::protocol::take_frame`], decodes each and hands it to the
//!   scheduler through [`Client`], with a completion callback that sends
//!   the reply into the connection's reply channel;
//! * a **writer** blocks on that channel and writes each reply out whole.
//!
//! The scheduler never touches a socket, so a client that stops reading
//! stalls only its own writer. The writer ends once every sender of the
//! channel is gone — the reader has stopped and every in-flight request
//! has been answered — so replies still go out after the peer closes its
//! write side. It then shuts the socket down, which is also how a write
//! failure stops the reader.
//!
//! # Reply order
//!
//! Requests carry caller-chosen correlation ids, so a connection can
//! pipeline arbitrarily many requests. Replies come back tagged, in the
//! order the scheduler completes them: a `step(n)` queues generations,
//! and verbs sent after it are answered before it finishes.
//!
//! # Malformed frames
//!
//! Malformed frames never kill the server: a body that fails
//! [`crate::protocol::decode_request`] earns an error reply (correlated
//! by a best-effort header peek) and the connection keeps going, since
//! framing is still intact. Only an oversize length prefix — where
//! framing itself is lost — stops the reader, after an error reply with
//! request id 0; the connection closes once in-flight replies are out.
//!
//! # Connection cap
//!
//! At most [`MAX_CONNECTIONS`] connections are served at once, each
//! counted until both its threads have exited. One more gets a single
//! [`ServeError::TooManyConnections`] reply (request id 0) and is closed
//! without spawning a thread.
//!
//! # Shutdown
//!
//! A blocked `accept` cannot observe the `shutdown` flag, so the listener
//! stays nonblocking and the loop sleeps 2 ms between empty polls; only
//! new connections wait on that sleep, never a request. Once the flag is
//! set, [`serve`] shuts every live socket down, joins the readers and
//! returns. It does not join the writers: one may be waiting on a queued
//! `step(n)` whose callback fires, or drops, only when the
//! [`crate::Server`] is dropped.
//!
//! [`WireClient`] is the matching blocking client: `send` (pipeline),
//! `recv` (next reply, any id) and `call` (one request, wait for its
//! reply).

use crate::error::ServeError;
use crate::protocol::{decode_reply, encode_reply, encode_request, request_id_of, take_frame};
use crate::protocol::{decode_request, Reply, Request};
use crate::server::Client;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const READ_CHUNK: usize = 64 * 1024;

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Connections [`serve`] handles at once; one past the cap is answered
/// with [`ServeError::TooManyConnections`] and closed.
pub const MAX_CONNECTIONS: usize = 256;

/// A reply completed by the scheduler, tagged with its request id.
type Tagged = (u32, Result<Reply, ServeError>);

/// A live connection as the accept loop holds it. The socket is shared
/// with both threads (`&TcpStream` reads and writes), so each connection
/// costs one descriptor.
struct Served {
    stream: Arc<TcpStream>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// Serves the scheduler behind `client` on `listener` until `shutdown`
/// turns true. Accepts in the calling thread (spawn it on a dedicated
/// one); see the [module docs](self) for the per-connection threads and
/// what shutdown waits for.
///
/// # Errors
///
/// Only listener-level failures (e.g. setting nonblocking mode) abort the
/// loop; per-connection errors close that connection.
pub fn serve(
    client: &Client,
    listener: TcpListener,
    shutdown: &Arc<AtomicBool>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut live: Vec<Served> = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                live.retain(|c| !(c.reader.is_finished() && c.writer.is_finished()));
                if live.len() >= MAX_CONNECTIONS {
                    refuse(stream);
                } else if let Ok(conn) = open(client, stream) {
                    live.push(conn);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    for conn in &live {
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    for conn in live {
        let _ = conn.reader.join();
    }
    Ok(())
}

/// Answers a connection past [`MAX_CONNECTIONS`] and closes it.
fn refuse(mut stream: TcpStream) {
    let refusal = ServeError::TooManyConnections {
        cap: MAX_CONNECTIONS,
    };
    let _ = stream.write_all(&encode_reply(0, &Err(refusal)));
}

/// Puts an accepted socket in blocking mode (some platforms hand it the
/// listener's nonblocking flag) and spawns its reader and writer.
fn open(client: &Client, stream: TcpStream) -> std::io::Result<Served> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    let stream = Arc::new(stream);
    let (replies_tx, replies) = mpsc::channel();
    let writer = {
        let stream = Arc::clone(&stream);
        std::thread::Builder::new()
            .name("genesys-serve-write".into())
            .spawn(move || write_replies(&stream, &replies))?
    };
    let reader = {
        let stream = Arc::clone(&stream);
        let client = client.clone();
        std::thread::Builder::new()
            .name("genesys-serve-read".into())
            .spawn(move || read_requests(&stream, &client, &replies_tx))?
    };
    Ok(Served {
        stream,
        reader,
        writer,
    })
}

/// The reader thread: reads until EOF, a read error or a framing loss,
/// dispatching every complete frame.
fn read_requests(mut stream: &TcpStream, client: &Client, replies: &Sender<Tagged>) {
    let mut rbuf = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        loop {
            match take_frame(&mut rbuf) {
                Ok(Some(body)) => dispatch(client, &body, replies),
                Ok(None) => break,
                Err(e) => {
                    // Framing lost: answer with the typed error, then stop.
                    let _ = replies.send((0, Err(e)));
                    return;
                }
            }
        }
    }
}

/// Decodes one request body and hands it to the scheduler; parse
/// failures are answered immediately with a typed error reply.
fn dispatch(client: &Client, body: &[u8], replies: &Sender<Tagged>) {
    match decode_request(body) {
        Ok((id, request)) => {
            let tx = replies.clone();
            let sent = client.dispatch(
                request,
                Box::new(move |result| {
                    let _ = tx.send((id, result));
                }),
            );
            if let Err(e) = sent {
                let _ = replies.send((id, Err(e)));
            }
        }
        Err(e) => {
            let id = request_id_of(body).unwrap_or(0);
            let _ = replies.send((id, Err(e)));
        }
    }
}

/// The writer thread: writes each reply until the channel closes or a
/// write fails, then shuts the socket down (which stops the reader too).
fn write_replies(mut stream: &TcpStream, replies: &Receiver<Tagged>) {
    for (id, result) in replies {
        if stream.write_all(&encode_reply(id, &result)).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Blocking wire client: the TCP twin of [`Client`]. Supports pipelining
/// — [`WireClient::send`] queues a request and returns its id,
/// [`WireClient::recv`] returns the next reply (any id) — plus the
/// one-shot [`WireClient::call`].
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    rbuf: Vec<u8>,
    next_id: u32,
}

impl WireClient {
    /// Connects to a server started with [`serve`].
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(WireClient {
            stream,
            rbuf: Vec::new(),
            next_id: 1,
        })
    }

    /// Sends a request without waiting, returning its correlation id.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure.
    pub fn send(&mut self, request: &Request) -> Result<u32, ServeError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.stream.write_all(&encode_request(id, request))?;
        Ok(id)
    }

    /// Blocks for the next reply frame, whichever request it answers.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] on EOF; [`ServeError::Io`] on
    /// transport failure; frame errors if the server sent garbage.
    pub fn recv(&mut self) -> Result<(u32, Result<Reply, ServeError>), ServeError> {
        loop {
            if let Some(body) = take_frame(&mut self.rbuf)? {
                return decode_reply(&body);
            }
            let mut chunk = [0u8; READ_CHUNK];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ServeError::Disconnected);
            }
            self.rbuf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Sends one request and waits for **its** reply. Assumes no other
    /// requests are outstanding on this connection (replies to other ids
    /// are discarded); pipeline with [`WireClient::send`]/[`WireClient::recv`]
    /// instead when interleaving.
    ///
    /// # Errors
    ///
    /// Transport errors, or the server's typed error for this request.
    pub fn call(&mut self, request: &Request) -> Result<Reply, ServeError> {
        let id = self.send(request)?;
        loop {
            let (got, result) = self.recv()?;
            if got == id {
                return result;
            }
        }
    }
}
