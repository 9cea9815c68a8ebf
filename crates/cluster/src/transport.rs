//! Shard links: one channel shape for every worker, one overlapped send
//! path.
//!
//! A `ShardLink` is the orchestrator's channel to one shard worker: a
//! reader, a writer, and the `Peer` at the far end. It speaks the binary
//! frame format (see [`crate::wire`]) to any of three peers:
//!
//! * a worker thread running [`crate::worker::serve`] over one end of a
//!   local socket pair (a Unix-domain pair, or a loopback TCP pair where
//!   the platform has no Unix-domain sockets) — `--local` runs and tests;
//! * a `pba-run shard-worker` child on its stdin/stdout pipes — the
//!   default;
//! * a pre-started `shard-worker --listen ADDR` worker, reached over TCP
//!   or a Unix-domain socket — `--connect`.
//!
//! [`SocketStream::connect`] and [`Listener`] (bind, then accept one
//! peer) are the workspace's only socket code: the links, the worker's
//! `--listen` mode and `pba-run serve --listen/--send` all use them. A
//! listener binding a Unix-domain path replaces a stale socket file there
//! but never any other file.
//!
//! Killing a peer shuts its socket down, which wakes a worker blocked in
//! a read, or kills its child process. Either way the link's next send or
//! receive fails, which the orchestrator detects as a dead link — that
//! detection, not any bookkeeping flag, is what drives the chaos-path
//! redirect.
//!
//! ## Overlapped send
//!
//! Each link owns a **sender thread** behind a bounded
//! two-slot queue: `ShardLink::send` serializes the frame, enqueues
//! the bytes, and returns immediately, so the orchestrator can
//! serialize wave *k+1* (and run its own half of the kernel) while wave
//! *k* is still being written to the OS. The queue preserves FIFO
//! order, so barrier semantics are untouched — replies are still
//! awaited in shard order, one wave behind at most (see the deferred
//! ack collection in `orchestrator.rs`). Write failures park in an
//! error slot and surface at the next `send`/`recv` on the link.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use pba_core::{CoreError, Result};

use crate::wire::{read_frame, Frame};

/// Depth of the per-link send queue: the wave in flight plus one being
/// serialized. Two is enough to hide serialization behind the kernel
/// without letting the orchestrator run unboundedly ahead.
pub(crate) const SEND_QUEUE_DEPTH: usize = 2;

/// A connected stream socket: TCP, or Unix-domain where the platform has
/// it.
pub enum SocketStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl SocketStream {
    /// Connect to `addr`: a Unix-domain socket path (anything with a `/`
    /// or a leading `.`), or `host:port` TCP.
    pub fn connect(addr: &str) -> io::Result<SocketStream> {
        if is_unix_addr(addr) {
            #[cfg(unix)]
            return Ok(SocketStream::Unix(UnixStream::connect(addr)?));
            #[cfg(not(unix))]
            return Err(unix_unsupported());
        }
        Ok(SocketStream::Tcp(TcpStream::connect(addr)?))
    }

    /// Two connected local sockets: a Unix-domain pair, or a loopback TCP
    /// pair where the platform has no Unix-domain sockets.
    fn pair() -> io::Result<(SocketStream, SocketStream)> {
        #[cfg(unix)]
        {
            let (a, b) = UnixStream::pair()?;
            Ok((SocketStream::Unix(a), SocketStream::Unix(b)))
        }
        #[cfg(not(unix))]
        {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            let a = TcpStream::connect(listener.local_addr()?)?;
            let (b, _) = listener.accept()?;
            Ok((SocketStream::Tcp(a), SocketStream::Tcp(b)))
        }
    }

    /// The stream's write half and buffered read half.
    pub fn split(&self) -> io::Result<(Box<dyn Write + Send>, Box<dyn BufRead + Send>)> {
        match self {
            SocketStream::Tcp(s) => {
                let w = s.try_clone()?;
                let r = s.try_clone()?;
                Ok((Box::new(w), Box::new(BufReader::new(r))))
            }
            #[cfg(unix)]
            SocketStream::Unix(s) => {
                let w = s.try_clone()?;
                let r = s.try_clone()?;
                Ok((Box::new(w), Box::new(BufReader::new(r))))
            }
        }
    }

    fn shutdown(&self) {
        match self {
            SocketStream::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            #[cfg(unix)]
            SocketStream::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }
}

/// A socket bound to an address, waiting for its one peer.
pub struct Listener(Bound);

enum Bound {
    Tcp(TcpListener),
    /// The listener and the path it is bound to.
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind `addr`: a Unix-domain socket path (anything with a `/` or a
    /// leading `.`), or `host:port` TCP. A socket file already at the
    /// path, left by an earlier run, is removed first; any other file
    /// there fails the bind and is left as it is.
    pub fn bind(addr: &str) -> io::Result<Listener> {
        if is_unix_addr(addr) {
            #[cfg(unix)]
            {
                let path = PathBuf::from(addr);
                remove_socket(&path)?;
                return Ok(Listener(Bound::Unix(UnixListener::bind(&path)?, path)));
            }
            #[cfg(not(unix))]
            return Err(unix_unsupported());
        }
        Ok(Listener(Bound::Tcp(TcpListener::bind(addr)?)))
    }

    /// `"unix"` or `"tcp"`.
    pub fn kind(&self) -> &'static str {
        match self.0 {
            Bound::Tcp(_) => "tcp",
            #[cfg(unix)]
            Bound::Unix(..) => "unix",
        }
    }

    /// Accept one peer and stop listening; a Unix-domain socket's path is
    /// unlinked once the peer is connected, so no stale socket file is
    /// left behind. Returns the connection and, for TCP, the peer's
    /// address.
    pub fn accept_one(self) -> io::Result<(SocketStream, Option<SocketAddr>)> {
        match self.0 {
            Bound::Tcp(listener) => {
                let (stream, peer) = listener.accept()?;
                Ok((SocketStream::Tcp(stream), Some(peer)))
            }
            #[cfg(unix)]
            Bound::Unix(listener, path) => {
                let (stream, _) = listener.accept()?;
                let _ = remove_socket(&path);
                Ok((SocketStream::Unix(stream), None))
            }
        }
    }
}

/// Remove the socket file at `path`, if one is there. Any other kind of
/// file is an error and is never removed; a missing path is fine.
fn remove_socket(path: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileTypeExt;
        match std::fs::symlink_metadata(path) {
            Ok(meta) if meta.file_type().is_socket() => std::fs::remove_file(path),
            Ok(_) => Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "path exists and is not a socket",
            )),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
    #[cfg(not(unix))]
    {
        let _ = path;
        Ok(())
    }
}

#[cfg(not(unix))]
fn unix_unsupported() -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "unix-domain sockets are not available on this platform",
    )
}

/// An address names a Unix-domain socket when it looks like a path;
/// anything else is `host:port` TCP.
pub(crate) fn is_unix_addr(addr: &str) -> bool {
    addr.contains('/') || addr.starts_with('.')
}

/// The far end of a [`ShardLink`].
enum Peer {
    /// A worker thread on the other end of a local socket pair. The
    /// link's end is kept so a kill or a reap can shut it down.
    Thread {
        socket: SocketStream,
        handle: Option<JoinHandle<std::result::Result<(), String>>>,
    },
    /// A `shard-worker` child on its stdin/stdout pipes.
    Child(Child),
    /// A pre-started worker the link connected to: nothing to reap.
    Remote(SocketStream),
}

impl Peer {
    /// Sever the channel: the link's reads and writes fail from here on,
    /// and a worker blocked in a read wakes up.
    fn kill(&mut self) {
        match self {
            Peer::Thread { socket, .. } | Peer::Remote(socket) => socket.shutdown(),
            Peer::Child(child) => {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    /// Reap the peer after the conversation ended (or after `kill`).
    /// Idempotent. `killed` suppresses exit-status complaints — a killed
    /// worker dying messily is the expected chaos outcome.
    fn reap(&mut self, killed: bool) -> std::result::Result<(), String> {
        let failure = match self {
            Peer::Thread { socket, handle } => {
                // Unlike a pipe's, a socket's dropped write half is no EOF
                // while other handles to it live: shut it down, or a worker
                // still waiting for a frame would never return to be joined.
                socket.shutdown();
                let Some(handle) = handle.take() else {
                    return Ok(());
                };
                let outcome = handle
                    .join()
                    .map_err(|_| "worker thread panicked".to_string())?;
                outcome
                    .err()
                    .map(|detail| format!("worker exited with error: {detail}"))
            }
            Peer::Child(child) => {
                let status = child.wait().map_err(|e| format!("wait failed: {e}"))?;
                (!status.success()).then(|| format!("worker exited with {status}"))
            }
            Peer::Remote(_) => None,
        };
        match failure {
            Some(detail) if !killed => Err(detail),
            _ => Ok(()),
        }
    }
}

/// The orchestrator's channel to one shard worker, with wire accounting.
pub(crate) struct ShardLink {
    shard: u32,
    /// Queue to the sender thread; `None` once the send half is closed.
    tx: Option<SyncSender<Vec<u8>>>,
    /// A write failure parked by the sender thread.
    send_err: Arc<Mutex<Option<String>>>,
    /// The sender thread, joined when the send half closes.
    sender: Option<JoinHandle<()>>,
    reader: Box<dyn BufRead + Send>,
    /// The last frame read, reused from frame to frame: a received
    /// frame's lists borrow it.
    rbuf: Vec<u8>,
    peer: Peer,
    alive: bool,
    /// Frames the orchestrator sent over this link.
    pub frames_sent: u64,
    /// Frames the orchestrator received over this link.
    pub frames_recv: u64,
    /// Bytes sent (complete frames, envelope included).
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_recv: u64,
    /// True once [`ShardLink::kill`] ran.
    pub killed: bool,
}

impl ShardLink {
    /// Wrap a connected channel to `peer` and start its two-slot sender
    /// thread.
    fn new(
        shard: u32,
        mut writer: Box<dyn Write + Send>,
        reader: Box<dyn BufRead + Send>,
        peer: Peer,
    ) -> ShardLink {
        let send_err = Arc::new(Mutex::new(None::<String>));
        let err_slot = send_err.clone();
        let (tx, rx) = sync_channel::<Vec<u8>>(SEND_QUEUE_DEPTH);
        let sender = std::thread::Builder::new()
            .name(format!("pba-send-{shard}"))
            .spawn(move || {
                let mut failed = false;
                // Keep draining after a failure so enqueuers never block
                // on a dead link; the error is already parked.
                for buf in rx {
                    if failed {
                        continue;
                    }
                    if let Err(e) = writer.write_all(&buf).and_then(|()| writer.flush()) {
                        *err_slot.lock().unwrap() = Some(e.to_string());
                        failed = true;
                    }
                }
                // Dropping the writer here closes a child's stdin (EOF)
                // once everything queued has been written.
            })
            .expect("spawn link sender thread");
        ShardLink {
            shard,
            tx: Some(tx),
            send_err,
            sender: Some(sender),
            reader,
            rbuf: Vec::new(),
            peer,
            alive: true,
            frames_sent: 0,
            frames_recv: 0,
            bytes_sent: 0,
            bytes_recv: 0,
            killed: false,
        }
    }

    /// A worker thread running `body` over the far end of a local socket
    /// pair: [`crate::worker::serve_socket`] for `--local` runs, a script
    /// in tests.
    pub(crate) fn thread(
        shard: u32,
        body: impl FnOnce(SocketStream) -> std::result::Result<(), String> + Send + 'static,
    ) -> Result<ShardLink> {
        let failed = |e: io::Error| CoreError::ClusterTransport {
            shard,
            detail: format!("local socket pair failed: {e}"),
        };
        let (socket, far) = SocketStream::pair().map_err(failed)?;
        let (writer, reader) = socket.split().map_err(failed)?;
        let handle = std::thread::Builder::new()
            .name(format!("pba-shard-{shard}"))
            .spawn(move || body(far))
            .expect("spawn shard worker thread");
        let peer = Peer::Thread {
            socket,
            handle: Some(handle),
        };
        Ok(ShardLink::new(shard, writer, reader, peer))
    }

    /// Spawn `exe shard-worker` piped on stdin/stdout (stderr passes
    /// through for diagnostics).
    pub(crate) fn process(shard: u32, exe: &Path) -> Result<ShardLink> {
        let mut child = Command::new(exe)
            .arg("shard-worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| CoreError::ClusterTransport {
                shard,
                detail: format!("failed to spawn worker {}: {e}", exe.display()),
            })?;
        let writer = Box::new(child.stdin.take().expect("stdin piped"));
        let reader = Box::new(BufReader::new(child.stdout.take().expect("stdout piped")));
        Ok(ShardLink::new(shard, writer, reader, Peer::Child(child)))
    }

    /// Connect to a pre-started worker listening at `addr` (TCP
    /// `host:port`, or a Unix-domain socket path).
    pub(crate) fn connect(shard: u32, addr: &str) -> Result<ShardLink> {
        let failed = |detail: String| CoreError::ClusterTransport { shard, detail };
        let stream = SocketStream::connect(addr)
            .map_err(|e| failed(format!("connect to worker at {addr} failed: {e}")))?;
        let (writer, reader) = stream
            .split()
            .map_err(|e| failed(format!("socket clone failed: {e}")))?;
        Ok(ShardLink::new(shard, writer, reader, Peer::Remote(stream)))
    }

    /// This link's shard index.
    pub(crate) fn shard(&self) -> u32 {
        self.shard
    }

    /// True until [`ShardLink::kill`] or an observed transport failure.
    pub(crate) fn is_alive(&self) -> bool {
        self.alive
    }

    fn transport_err(&self, detail: String) -> CoreError {
        CoreError::ClusterTransport {
            shard: self.shard,
            detail,
        }
    }

    /// Send one frame: serialize and enqueue it on the sender thread.
    /// Returns as soon as a queue slot is free, at most
    /// [`SEND_QUEUE_DEPTH`] waves ahead of the writes.
    pub(crate) fn send(&mut self, frame: &Frame) -> Result<()> {
        let bytes = frame.encode();
        let len = bytes.len();
        let failure = match (parked(&self.send_err), &self.tx) {
            (Some(detail), _) => Some(format!("send {} failed: {detail}", frame.tag())),
            (None, None) => Some(format!("send {} on closed link", frame.tag())),
            (None, Some(tx)) => tx
                .send(bytes)
                .err()
                .map(|_| format!("send {} failed: sender gone", frame.tag())),
        };
        if let Some(detail) = failure {
            self.alive = false;
            return Err(self.transport_err(detail));
        }
        self.frames_sent += 1;
        self.bytes_sent += len as u64;
        Ok(())
    }

    /// Receive one frame into the link's read buffer; its lists borrow
    /// the buffer until the next receive. EOF, unreadable frames, and
    /// worker-reported `error` frames all surface as
    /// [`CoreError::ClusterTransport`].
    pub(crate) fn recv(&mut self) -> Result<Frame<'_>> {
        // The frame borrows `rbuf` alone, so the failure paths below name
        // the other fields directly rather than through `&self` methods.
        let got = match read_frame(self.reader.as_mut(), &mut self.rbuf) {
            Ok(got) => got,
            Err(e) => {
                self.alive = false;
                return Err(CoreError::ClusterTransport {
                    shard: self.shard,
                    detail: with_parked(format!("unreadable reply: {e}"), &self.send_err),
                });
            }
        };
        let Some((frame, bytes)) = got else {
            self.alive = false;
            return Err(CoreError::ClusterTransport {
                shard: self.shard,
                detail: with_parked("shard closed the pipe (EOF)".into(), &self.send_err),
            });
        };
        self.frames_recv += 1;
        self.bytes_recv += bytes as u64;
        if let Frame::Error { detail } = frame {
            self.alive = false;
            return Err(CoreError::ClusterTransport {
                shard: self.shard,
                detail: format!("worker error: {detail}"),
            });
        }
        Ok(frame)
    }

    /// Kill the shard: sever the channel to its peer. The next send/recv
    /// observes a dead link; a blocked sender thread fails out and parks
    /// its error.
    pub(crate) fn kill(&mut self) {
        self.peer.kill();
        self.killed = true;
        self.alive = false;
    }

    /// Drop the send half: joins the sender thread (flushing anything
    /// queued) and closes a child's input so it sees EOF.
    fn close_sender(&mut self) {
        self.tx.take();
        if let Some(h) = self.sender.take() {
            let _ = h.join();
        }
    }

    /// Clean teardown: `shutdown` → `bye`, then reap the worker. Errors
    /// are reported (a worker that fails to exit cleanly is a bug), but
    /// a killed link just reaps.
    pub(crate) fn finish(&mut self) -> Result<()> {
        if self.alive {
            self.send(&Frame::Shutdown)?;
            let got = self.recv()?.tag();
            if got != "bye" {
                return Err(self.transport_err(format!("expected bye, got {got}")));
            }
            self.alive = false;
        }
        self.close_sender();
        self.peer
            .reap(self.killed)
            .map_err(|detail| CoreError::ClusterTransport {
                shard: self.shard,
                detail,
            })
    }
}

/// The write failure parked in `slot`, if any.
fn parked(slot: &Mutex<Option<String>>) -> Option<String> {
    slot.lock()
        .expect("the sender thread never panics holding its error slot")
        .clone()
}

/// `what`, followed by the write failure parked in `slot`, if any.
fn with_parked(what: String, slot: &Mutex<Option<String>>) -> String {
    match parked(slot) {
        Some(p) => format!("{what} (send side: {p})"),
        None => what,
    }
}

impl Drop for ShardLink {
    fn drop(&mut self) {
        // Never leave a live worker behind on an error path.
        if self.alive {
            self.kill();
        }
        self.close_sender();
        let _ = self.peer.reap(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    #[test]
    fn unix_addr_detection() {
        assert!(is_unix_addr("/tmp/worker.sock"));
        assert!(is_unix_addr("./worker.sock"));
        assert!(!is_unix_addr("127.0.0.1:9000"));
        assert!(!is_unix_addr("localhost:9000"));
    }

    #[test]
    fn thread_links_wake_workers_blocked_in_a_read() {
        // A worker blocked in its first read: the kill must end that read,
        // so the reap can join the thread, and the link is dead after.
        let (started, ready) = channel();
        let (read_tx, read_rx) = channel();
        let mut link = ShardLink::thread(0, move |stream| {
            let (_writer, mut reader) = stream.split().map_err(|e| e.to_string())?;
            started.send(()).unwrap();
            let mut byte = [0u8; 1];
            read_tx
                .send(reader.read(&mut byte).map_err(|e| e.kind()))
                .unwrap();
            Ok(())
        })
        .unwrap();
        ready.recv().unwrap();
        // The kill must end the read whether or not it has begun; the
        // pause only makes it likely that the worker is already blocked.
        std::thread::sleep(Duration::from_millis(10));
        link.kill();
        assert_eq!(
            read_rx.recv_timeout(Duration::from_secs(10)),
            Ok(Ok(0)),
            "the blocked read must end at EOF"
        );
        assert!(link.finish().is_ok(), "a killed link reaps cleanly");
        assert!(link.send(&Frame::Drain).is_err());
        assert!(link.recv().is_err());

        // A link a bad frame marked dead, and no kill: its reap must still
        // end the read of a worker waiting for the next frame.
        let mut link = ShardLink::thread(1, |stream| {
            let (mut writer, mut reader) = stream.split().map_err(|e| e.to_string())?;
            writer
                .write_all(b"not a frame")
                .map_err(|e| e.to_string())?;
            let mut byte = [0u8; 1];
            reader.read(&mut byte).map(drop).map_err(|e| e.to_string())
        })
        .unwrap();
        assert!(link.recv().is_err());
        assert!(!link.is_alive() && !link.killed);
        let (done_tx, done) = channel();
        std::thread::spawn(move || done_tx.send(link.finish().is_ok()).unwrap());
        assert_eq!(
            done.recv_timeout(Duration::from_secs(10)),
            Ok(true),
            "the reap must end the worker's read and join it"
        );
    }

    #[test]
    fn overlapped_sender_parks_write_errors() {
        // A local link whose peer is killed under the sender thread: the
        // enqueue succeeds, the error surfaces on the next call.
        let mut link = ShardLink::thread(0, crate::worker::serve_socket).unwrap();
        link.peer.kill();
        link.send(&Frame::Drain).ok(); // may or may not observe it yet
        let mut saw_error = false;
        for _ in 0..100 {
            if link.send(&Frame::Drain).is_err() {
                saw_error = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(saw_error, "severed link never surfaced the write error");
        link.killed = true; // suppress exit-status complaints in Drop
    }
}
