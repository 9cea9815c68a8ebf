//! Shard transports: one `Transport` trait, three ways to reach a
//! worker, one overlapped send path.
//!
//! A `ShardLink` is the orchestrator's channel to one shard worker.
//! It speaks the binary frame format (see [`crate::wire`]) over any
//! transport:
//!
//! * `LocalTransport` — run [`crate::worker::serve`] on a thread over
//!   in-memory byte pipes with pipe semantics (blocking reads, EOF on
//!   writer drop, `BrokenPipe` after a kill). `std::io::pipe` landed in
//!   Rust 1.87; the workspace floor is 1.85, so the pipes are
//!   hand-rolled on `Mutex` + `Condvar`.
//! * `PipeTransport` — spawn a real OS process (the `pba-run
//!   shard-worker` child mode) and speak over its stdin/stdout pipes.
//! * `SocketTransport` — connect to a worker over TCP or a
//!   Unix-domain socket. The orchestrator can manage the worker itself
//!   (spawn `pba-run shard-worker --listen <path>` and connect) or
//!   attach to pre-started workers at given addresses.
//!
//! [`SocketStream::connect`] and [`Listener`] (bind, then accept one
//! peer) are the workspace's only socket code: the socket transport, the
//! worker's `--listen` mode and `pba-run serve --listen/--send` all use
//! them. A listener binding a Unix-domain path replaces a stale socket
//! file there but never any other file.
//!
//! Every transport surfaces the same failure mode: killing the peer
//! makes subsequent sends/receives fail, which the orchestrator detects
//! as a dead link — that detection, not any bookkeeping flag, is what
//! drives the chaos-path redirect.
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

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pba_core::{CoreError, Result};

use crate::wire::{read_frame, Frame};
use crate::worker;

/// Depth of the per-link send queue: the wave in flight plus one being
/// serialized. Two is enough to hide serialization behind the kernel
/// without letting the orchestrator run unboundedly ahead.
pub(crate) const SEND_QUEUE_DEPTH: usize = 2;

/// Shared state of one in-memory pipe direction.
#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    /// Writer dropped: reads drain the buffer, then return EOF.
    closed: bool,
    /// Peer killed: reads and writes fail with `BrokenPipe` immediately.
    broken: bool,
}

/// One unidirectional in-memory pipe.
#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

impl Pipe {
    fn sever(&self) {
        let mut st = self.state.lock().unwrap();
        st.broken = true;
        self.readable.notify_all();
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        self.readable.notify_all();
    }
}

/// Write half of an in-memory pipe.
pub(crate) struct PipeWriter(Arc<Pipe>);

/// Read half of an in-memory pipe.
pub(crate) struct PipeReader(Arc<Pipe>);

/// A connected in-memory pipe pair.
pub(crate) fn mem_pipe() -> (PipeWriter, PipeReader) {
    let p = Arc::new(Pipe::default());
    (PipeWriter(p.clone()), PipeReader(p))
}

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut st = self.0.state.lock().unwrap();
        if st.broken {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe severed"));
        }
        st.buf.extend(data);
        self.0.readable.notify_all();
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut st = self.0.state.lock().unwrap();
        loop {
            if !st.buf.is_empty() {
                let take = st.buf.len().min(out.len());
                for slot in out.iter_mut().take(take) {
                    *slot = st.buf.pop_front().expect("len checked");
                }
                return Ok(take);
            }
            if st.broken {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe severed"));
            }
            if st.closed {
                return Ok(0);
            }
            st = self.0.readable.wait(st).unwrap();
        }
    }
}

/// A live duplex channel to one shard worker. Implementations hand the
/// two halves to the [`ShardLink`] once; `kill` must make both halves
/// fail (and wake any blocked peer), because the write half may be
/// owned by a sender thread at that point.
pub(crate) trait Transport: Send {
    /// Take the write half. Called exactly once, before any I/O.
    fn take_writer(&mut self) -> Box<dyn Write + Send>;

    /// Take the buffered read half. Called exactly once, before any I/O.
    fn take_reader(&mut self) -> Box<dyn BufRead + Send>;

    /// Forcibly sever the channel: subsequent operations on the taken
    /// halves fail, a blocked peer wakes up, a managed peer is killed.
    fn kill(&mut self);

    /// Reap the peer after the conversation ended (or after `kill`).
    /// Idempotent. `killed` suppresses exit-status complaints — a
    /// killed worker dying messily is the expected chaos outcome.
    fn reap(&mut self, killed: bool) -> std::result::Result<(), String>;
}

/// Worker thread over in-memory pipes.
pub(crate) struct LocalTransport {
    handle: Option<JoinHandle<std::result::Result<(), String>>>,
    to_worker: Arc<Pipe>,
    from_worker: Arc<Pipe>,
    writer: Option<PipeWriter>,
    reader: Option<PipeReader>,
}

impl LocalTransport {
    /// Spawn [`worker::serve`] on a thread connected by in-memory pipes.
    pub(crate) fn spawn(shard: u32) -> Self {
        let (orch_w, worker_r) = mem_pipe();
        let (worker_w, orch_r) = mem_pipe();
        let to_worker = worker_r.0.clone();
        let from_worker = orch_r.0.clone();
        let handle = std::thread::Builder::new()
            .name(format!("pba-shard-{shard}"))
            .spawn(move || worker::serve(BufReader::new(worker_r), worker_w))
            .expect("spawn shard worker thread");
        LocalTransport {
            handle: Some(handle),
            to_worker,
            from_worker,
            writer: Some(orch_w),
            reader: Some(orch_r),
        }
    }
}

impl Transport for LocalTransport {
    fn take_writer(&mut self) -> Box<dyn Write + Send> {
        Box::new(self.writer.take().expect("writer taken once"))
    }

    fn take_reader(&mut self) -> Box<dyn BufRead + Send> {
        Box::new(BufReader::new(
            self.reader.take().expect("reader taken once"),
        ))
    }

    fn kill(&mut self) {
        self.to_worker.sever();
        self.from_worker.sever();
    }

    fn reap(&mut self, killed: bool) -> std::result::Result<(), String> {
        if let Some(h) = self.handle.take() {
            let outcome = h.join().map_err(|_| "worker thread panicked".to_string())?;
            if let (Err(detail), false) = (outcome, killed) {
                return Err(format!("worker exited with error: {detail}"));
            }
        }
        Ok(())
    }
}

/// Real child process over stdin/stdout pipes.
pub(crate) struct PipeTransport {
    child: Option<Child>,
    stdin: Option<Box<dyn Write + Send>>,
    stdout: Option<Box<dyn BufRead + Send>>,
}

impl PipeTransport {
    /// Spawn `exe shard-worker` piped on stdin/stdout (stderr passes
    /// through for diagnostics).
    pub(crate) fn spawn(shard: u32, exe: &Path) -> Result<Self> {
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
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = child.stdout.take().expect("stdout piped");
        Ok(PipeTransport {
            child: Some(child),
            stdin: Some(Box::new(stdin)),
            stdout: Some(Box::new(BufReader::new(stdout))),
        })
    }
}

impl Transport for PipeTransport {
    fn take_writer(&mut self) -> Box<dyn Write + Send> {
        self.stdin.take().expect("writer taken once")
    }

    fn take_reader(&mut self) -> Box<dyn BufRead + Send> {
        self.stdout.take().expect("reader taken once")
    }

    fn kill(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn reap(&mut self, killed: bool) -> std::result::Result<(), String> {
        if let Some(mut child) = self.child.take() {
            let status = child.wait().map_err(|e| format!("wait failed: {e}"))?;
            if !status.success() && !killed {
                return Err(format!("worker exited with {status}"));
            }
        }
        Ok(())
    }
}

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

/// Worker over a TCP or Unix-domain stream socket — either a child this
/// transport spawned with `shard-worker --listen`, or a pre-started
/// worker it merely connected to.
pub(crate) struct SocketTransport {
    stream: SocketStream,
    write_half: Option<Box<dyn Write + Send>>,
    read_half: Option<Box<dyn BufRead + Send>>,
    child: Option<Child>,
    /// Socket file to clean up (managed Unix-domain workers).
    path: Option<PathBuf>,
}

impl SocketTransport {
    /// Spawn `exe shard-worker --listen <socket>` on a fresh Unix-domain
    /// socket path and connect to it (retrying while the child binds).
    pub(crate) fn spawn(shard: u32, exe: &Path) -> Result<Self> {
        let sock =
            std::env::temp_dir().join(format!("pba-worker-{}-{shard}.sock", std::process::id()));
        let child = Command::new(exe)
            .arg("shard-worker")
            .arg("--listen")
            .arg(&sock)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| CoreError::ClusterTransport {
                shard,
                detail: format!("failed to spawn socket worker {}: {e}", exe.display()),
            })?;
        let mut child = Some(child);
        let addr = sock.to_string_lossy().into_owned();
        // The child needs a moment to bind; a dead child means we stop
        // retrying immediately instead of timing out.
        let mut last_err = String::new();
        for _ in 0..250 {
            match SocketStream::connect(&addr) {
                Ok(stream) => {
                    return Self::from_stream(shard, stream, child, Some(sock));
                }
                Err(e) => last_err = e.to_string(),
            }
            if let Some(c) = &mut child {
                if let Ok(Some(status)) = c.try_wait() {
                    let _ = remove_socket(&sock);
                    return Err(CoreError::ClusterTransport {
                        shard,
                        detail: format!("socket worker exited with {status} before accepting"),
                    });
                }
            }
            std::thread::sleep(Duration::from_millis(4));
        }
        if let Some(mut c) = child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
        let _ = remove_socket(&sock);
        Err(CoreError::ClusterTransport {
            shard,
            detail: format!("socket worker never accepted on {addr}: {last_err}"),
        })
    }

    /// Connect to a pre-started worker listening at `addr` (a `/`-ful
    /// path means Unix-domain, anything else `host:port` TCP).
    pub(crate) fn connect(shard: u32, addr: &str) -> Result<Self> {
        let stream = SocketStream::connect(addr).map_err(|e| CoreError::ClusterTransport {
            shard,
            detail: format!("connect to worker at {addr} failed: {e}"),
        })?;
        Self::from_stream(shard, stream, None, None)
    }

    fn from_stream(
        shard: u32,
        stream: SocketStream,
        child: Option<Child>,
        path: Option<PathBuf>,
    ) -> Result<Self> {
        let (write_half, read_half) = stream.split().map_err(|e| CoreError::ClusterTransport {
            shard,
            detail: format!("socket clone failed: {e}"),
        })?;
        Ok(SocketTransport {
            stream,
            write_half: Some(write_half),
            read_half: Some(read_half),
            child,
            path,
        })
    }
}

impl Transport for SocketTransport {
    fn take_writer(&mut self) -> Box<dyn Write + Send> {
        self.write_half.take().expect("writer taken once")
    }

    fn take_reader(&mut self) -> Box<dyn BufRead + Send> {
        self.read_half.take().expect("reader taken once")
    }

    fn kill(&mut self) {
        self.stream.shutdown();
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn reap(&mut self, killed: bool) -> std::result::Result<(), String> {
        let outcome = if let Some(mut child) = self.child.take() {
            let status = child.wait().map_err(|e| format!("wait failed: {e}"))?;
            if !status.success() && !killed {
                Err(format!("worker exited with {status}"))
            } else {
                Ok(())
            }
        } else {
            Ok(())
        };
        if let Some(path) = self.path.take() {
            let _ = remove_socket(&path);
        }
        outcome
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
    transport: Box<dyn Transport>,
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
    /// Wrap a connected transport and start its two-slot sender thread.
    pub(crate) fn new(shard: u32, mut transport: Box<dyn Transport>) -> ShardLink {
        let mut writer = transport.take_writer();
        let reader = transport.take_reader();
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
                // Dropping the writer here closes the worker's stdin
                // (EOF) once everything queued has been written.
            })
            .expect("spawn link sender thread");
        ShardLink {
            shard,
            tx: Some(tx),
            send_err,
            sender: Some(sender),
            reader,
            rbuf: Vec::new(),
            transport,
            alive: true,
            frames_sent: 0,
            frames_recv: 0,
            bytes_sent: 0,
            bytes_recv: 0,
            killed: false,
        }
    }

    /// Worker thread over in-memory pipes (tests, `--local` runs).
    pub(crate) fn local(shard: u32) -> ShardLink {
        ShardLink::new(shard, Box::new(LocalTransport::spawn(shard)))
    }

    /// Worker child process over stdin/stdout pipes.
    pub(crate) fn process(shard: u32, exe: &Path) -> Result<ShardLink> {
        Ok(ShardLink::new(
            shard,
            Box::new(PipeTransport::spawn(shard, exe)?),
        ))
    }

    /// Managed socket worker: spawn `exe shard-worker --listen` on a
    /// fresh Unix-domain socket and connect.
    pub(crate) fn socket(shard: u32, exe: &Path) -> Result<ShardLink> {
        Ok(ShardLink::new(
            shard,
            Box::new(SocketTransport::spawn(shard, exe)?),
        ))
    }

    /// Pre-started socket worker at `addr` (TCP `host:port`, or a
    /// Unix-domain socket path).
    pub(crate) fn socket_connect(shard: u32, addr: &str) -> Result<ShardLink> {
        Ok(ShardLink::new(
            shard,
            Box::new(SocketTransport::connect(shard, addr)?),
        ))
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

    /// Kill the shard: sever the transport (and any managed peer). The
    /// next send/recv observes a dead link; a blocked sender thread
    /// fails out and parks its error.
    pub(crate) fn kill(&mut self) {
        self.transport.kill();
        self.killed = true;
        self.alive = false;
    }

    /// Drop the send half: joins the sender thread (flushing anything
    /// queued) and closes the peer's input so it sees EOF.
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
        self.transport
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
        let _ = self.transport.reap(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pipe_delivers_lines_in_order() {
        let (mut w, r) = mem_pipe();
        let t = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(r).lines() {
                lines.push(line.unwrap());
            }
            lines
        });
        w.write_all(b"one\ntwo\n").unwrap();
        drop(w); // EOF
        assert_eq!(t.join().unwrap(), vec!["one", "two"]);
    }

    #[test]
    fn severed_pipe_breaks_both_ends() {
        let (mut w, mut r) = mem_pipe();
        w.0.sever();
        assert_eq!(w.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        let mut buf = [0u8; 4];
        assert_eq!(
            r.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }

    #[test]
    fn blocked_reader_wakes_on_sever() {
        let (w, mut r) = mem_pipe();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 4];
            r.read(&mut buf)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        w.0.sever();
        assert_eq!(
            t.join().unwrap().unwrap_err().kind(),
            io::ErrorKind::BrokenPipe
        );
    }

    #[test]
    fn unix_addr_detection() {
        assert!(is_unix_addr("/tmp/worker.sock"));
        assert!(is_unix_addr("./worker.sock"));
        assert!(!is_unix_addr("127.0.0.1:9000"));
        assert!(!is_unix_addr("localhost:9000"));
    }

    #[test]
    fn overlapped_sender_parks_write_errors() {
        // A local link whose pipes are severed under the sender thread:
        // the enqueue succeeds, the error surfaces on the next call.
        let mut link = ShardLink::local(0);
        link.transport.kill();
        link.send(&Frame::Drain).ok(); // may or may not observe it yet
        let mut saw_error = false;
        for _ in 0..100 {
            if link.send(&Frame::Drain).is_err() {
                saw_error = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(saw_error, "severed link never surfaced the write error");
        link.killed = true; // suppress exit-status complaints in Drop
    }
}
