//! The TCP backend: rank-0 rendezvous, full-mesh link formation,
//! write-through sends, reads by the waiting rank or a per-peer reader
//! pump, heartbeat failure detection, and reconnect with deterministic
//! backoff.
//!
//! ## Topology
//!
//! Every rank binds an ephemeral listener on localhost. Rank 0 writes
//! its address to the rendezvous file (atomically: tmp + rename);
//! joiners poll the file, dial rank 0, and introduce themselves with a
//! [`Hello`] carrying their own listen address. Once all `np - 1`
//! joiners have checked in, rank 0 answers each with a [`Welcome`]
//! carrying the complete address book and keeps those connections as
//! its mesh links. Joiners then dial every *higher* rank directly
//! (lower rank dials higher, so each pair forms exactly one link) and
//! block until every peer slot has a live link — [`TcpTransport::connect`]
//! returns only on a fully formed mesh.
//!
//! ## Sends, reads and heartbeats
//!
//! Sends are write-through: the sending thread — the rank itself, the
//! match-time ack hook, a crash notice, shutdown's [`FrameKind::Bye`]
//! or the detector's heartbeat — writes the whole frame to the socket
//! under the link's lock. A peer that stops draining blocks a send for
//! up to the 1 s write timeout; then the link comes down.
//!
//! Reads are leader/follower. A link's read side (its socket and a
//! buffer of bytes not yet decoded) sits in a slot; whichever thread
//! reads takes it out for one frame or one read timeout and puts it
//! back, so hand-over happens between frames. A rank blocked on a wait
//! that only one link can end ([`Transport::progress`]) reads that link
//! itself: it decodes and delivers each frame and re-checks its wait,
//! so a message costs no thread wake-up. Each link also has a reader
//! pump thread, which reads only while no rank has waited on the link
//! for one heartbeat interval (the rank keeps the link between
//! back-to-back waits) and otherwise sleeps until that lease runs out
//! or a rank gives the link back — as every wait the hook declines does.
//! Pump and rank run the same frame handler, which refreshes the peer's
//! `last_seen` clock on every arrival. Readers never write — acks go out
//! at match time from the receiving rank ([`WireHandle::deliver`]),
//! after its mailbox lock and the read side are released — so two
//! readers cannot block on each other's full socket buffers.
//!
//! The failure detector runs from [`TcpTransport::connect`] on. Each
//! heartbeat interval it heartbeats every link idle that long (so a
//! joined but unstarted transport stays alive to its peers) and, once
//! started, declares any peer silent past the heartbeat timeout dead,
//! feeding the same `DeadSet` that cooperative thread-mode crashes feed.
//!
//! ## Link loss
//!
//! A broken link (write failure, read EOF, corrupt frame) is not
//! immediately a death: the dialing side of the pair re-dials with the
//! chaos [`RetryPolicy`]'s capped exponential backoff, re-introduces
//! itself, and resumes — counting one `net/reconnects`. Only when the
//! redial budget is exhausted (or, on the accepting side, when
//! heartbeats stay silent past the timeout) is the peer marked dead.
//! In-flight frames on a broken link are lost; that is the wire being
//! honest, and exactly what `send_reliable` exists to paper over.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use pdc_chaos::RetryPolicy;
use pdc_mpc::{FrameOutcome, Transport, WireFrame, WireHandle};

use crate::frame::{bad, Frame, FrameBuf, FrameKind, Hello, Welcome};

/// Everything [`TcpTransport::connect`] needs to join a world.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// World rank this process hosts.
    pub rank: usize,
    /// World size.
    pub size: usize,
    /// Session id; all ranks of one launch must agree, and the
    /// handshake rejects strangers from other sessions.
    pub session: u64,
    /// Path of the rendezvous file rank 0 publishes its address in.
    pub rendezvous: PathBuf,
    /// Idle gap after which a link sends a keepalive heartbeat.
    pub heartbeat_interval: Duration,
    /// Silence after which the failure detector declares a peer dead.
    /// Must comfortably exceed the interval (the default is 20x).
    pub heartbeat_timeout: Duration,
    /// Budget for the whole join: rendezvous, dials, mesh formation.
    pub connect_timeout: Duration,
    /// Backoff schedule for re-dialing a broken link; its exhaustion is
    /// the dialer-side death verdict.
    pub retry: RetryPolicy,
}

impl NetConfig {
    /// A config with default timings (100ms heartbeats, 2s death
    /// verdict, 20s join budget).
    pub fn new(rank: usize, size: usize, session: u64, rendezvous: PathBuf) -> Self {
        Self {
            rank,
            size,
            session,
            rendezvous,
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(20),
            retry: RetryPolicy::default(),
        }
    }

    /// Read the launcher-provided environment (`PDC_NET_RANK`,
    /// `PDC_NET_SIZE`, `PDC_NET_SESSION`, `PDC_NET_RENDEZVOUS`) — how a
    /// worker process spawned by `pdc-run` discovers its identity.
    pub fn from_env() -> io::Result<Self> {
        fn var(key: &str) -> io::Result<String> {
            std::env::var(key).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{key} not set (worker processes are spawned by pdc-run)"),
                )
            })
        }
        fn parse<T: std::str::FromStr>(key: &str, text: &str) -> io::Result<T> {
            text.parse().map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{key} is not a valid number: {text:?}"),
                )
            })
        }
        let rank: usize = parse("PDC_NET_RANK", &var("PDC_NET_RANK")?)?;
        let size: usize = parse("PDC_NET_SIZE", &var("PDC_NET_SIZE")?)?;
        let session: u64 = parse("PDC_NET_SESSION", &var("PDC_NET_SESSION")?)?;
        let rendezvous = PathBuf::from(var("PDC_NET_RENDEZVOUS")?);
        if size == 0 || rank >= size {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("rank {rank} out of range for world size {size}"),
            ));
        }
        Ok(Self::new(rank, size, session, rendezvous))
    }
}

/// Lifecycle of one peer link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeerStatus {
    /// No link yet (mesh still forming).
    Vacant,
    /// Link up, reader pump running.
    Connected,
    /// Link lost; reconnect may be in flight.
    Down,
    /// Peer said goodbye ([`FrameKind::Bye`]); its silence is not a death.
    Closed,
}

struct Peer {
    /// The link's socket and generation; `None` while no link is up.
    /// Senders write whole frames under this lock. Sends to a linkless
    /// peer succeed vacuously — the wire is lossy by contract, and
    /// reliability is layered above.
    link: Mutex<Option<(TcpStream, u64)>>,
    /// The link's read side between turns (see [`ReadSlot`]).
    read: Mutex<ReadSlot>,
    /// Wakes ranks waiting in [`Shared::take_side`] for the read side.
    returned: Condvar,
    /// Nanoseconds (since transport epoch) when a rank last waited on
    /// this link; 0 once it gave the link back to the pump. While this
    /// is less than one heartbeat interval old the reader pump leaves
    /// the link to the rank, which reads it whenever it waits.
    led: AtomicU64,
    /// The current link's reader pump, woken when a rank gives the link
    /// back or the transport shuts down.
    pump: Mutex<Option<Thread>>,
    status: Mutex<PeerStatus>,
    /// Bumped on every (re)install; reader pumps and senders carry
    /// their link's generation so a stale link's failure cannot tear
    /// down its successor.
    generation: AtomicU64,
    /// Nanoseconds (since transport epoch) of the last frame — any
    /// frame — received from this peer. The failure detector's clock.
    last_seen: AtomicU64,
    /// Nanoseconds (since transport epoch) of the last frame written to
    /// this peer; the detector heartbeats links idle for an interval.
    last_sent: AtomicU64,
}

/// Who may read a link. A thread takes the read side out of the slot
/// to read one frame (or wait out one read timeout) and puts it back,
/// so one thread at a time reads a link and hand-over happens between
/// frames; bytes of a frame begun by one thread travel in the side's
/// buffer to the next.
#[derive(Default)]
struct ReadSlot {
    /// The read side, while no thread holds it.
    side: Option<ReadSide>,
    /// Generation of the link being read; 0 while none is (mesh still
    /// forming, or after a Bye, link loss or shutdown).
    generation: u64,
    /// Ranks waiting in [`Shared::take_side`] for `side`.
    waiters: usize,
}

/// A link's read side: its socket and the bytes read off it but not
/// yet decoded.
struct ReadSide {
    stream: TcpStream,
    generation: u64,
    buf: FrameBuf,
}

impl ReadSide {
    /// The next frame, or `None` once a read has waited out the socket's
    /// read timeout (one heartbeat interval); a partial frame stays
    /// buffered either way.
    fn next_frame(&mut self) -> io::Result<Option<Frame<Bytes>>> {
        loop {
            if let Some(frame) = self.buf.next_frame()? {
                return Ok(Some(frame));
            }
            match self.buf.fill(&mut &self.stream) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// What [`Shared::take_side`] found.
enum Take {
    /// The read side: the caller reads the link now.
    Side(ReadSide),
    /// Another thread holds it.
    Busy,
    /// No link is up to read.
    NoLink,
}

struct Shared {
    cfg: NetConfig,
    epoch: Instant,
    listener: TcpListener,
    listen_addr: SocketAddr,
    /// `addrs[r]` = rank r's listen address, once known.
    addrs: Mutex<Vec<Option<SocketAddr>>>,
    peers: Vec<Peer>,
    /// Set by [`Transport::start`]; reader pumps block on it before
    /// delivering, and the detector convicts only once it is set.
    handle: Mutex<Option<WireHandle>>,
    handle_cv: Condvar,
    /// Signalled by every link install; [`Shared::wait_mesh`] waits on it.
    mesh: Mutex<()>,
    mesh_cv: Condvar,
    shutting_down: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Frames read by a rank blocked on their link rather than by a
    /// reader pump (for tests).
    frames_led: AtomicU64,
}

/// The real-wire transport: one instance per OS process, hosting one
/// world rank. Obtained from [`TcpTransport::connect`], handed to
/// `World::attach`, and shut down by the caller when the rank is done.
pub struct TcpTransport {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("rank", &self.shared.cfg.rank)
            .field("size", &self.shared.cfg.size)
            .field("listen", &self.shared.listen_addr)
            .finish()
    }
}

impl TcpTransport {
    /// Join the session: bind, rendezvous, form the full mesh, start
    /// the reader pumps and the detector. Returns only when a link to
    /// every peer is up (or the join budget expires).
    pub fn connect(cfg: NetConfig) -> io::Result<Arc<TcpTransport>> {
        assert!(cfg.size >= 1, "world size must be at least 1");
        assert!(cfg.rank < cfg.size, "rank out of range");
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let listen_addr = listener.local_addr()?;
        let mut addrs = vec![None; cfg.size];
        addrs[cfg.rank] = Some(listen_addr);
        let shared = Arc::new(Shared {
            peers: (0..cfg.size)
                .map(|_| Peer {
                    link: Mutex::new(None),
                    read: Mutex::new(ReadSlot::default()),
                    returned: Condvar::new(),
                    led: AtomicU64::new(0),
                    pump: Mutex::new(None),
                    status: Mutex::new(PeerStatus::Vacant),
                    generation: AtomicU64::new(0),
                    last_seen: AtomicU64::new(0),
                    last_sent: AtomicU64::new(0),
                })
                .collect(),
            cfg,
            epoch: Instant::now(),
            listener,
            listen_addr,
            addrs: Mutex::new(addrs),
            handle: Mutex::new(None),
            handle_cv: Condvar::new(),
            mesh: Mutex::new(()),
            mesh_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
            frames_led: AtomicU64::new(0),
        });
        let deadline = Instant::now() + shared.cfg.connect_timeout;
        if shared.cfg.rank == 0 {
            shared.publish_rendezvous()?;
            shared.rendezvous_rank0(deadline)?;
        } else {
            shared.join_via_rank0(deadline)?;
        }
        // From here on, inbound connections (mesh dials from lower
        // ranks, reconnects) are admitted by the accept loop, and the
        // detector heartbeats every link that is up.
        for task in [Shared::accept_loop, Shared::detector_loop] {
            let sh = Arc::clone(&shared);
            let h = thread::spawn(move || task(sh));
            shared.threads.lock().push(h);
        }
        // Dial every higher rank (rank 0's links all formed at
        // rendezvous; each other pair is dialed by its lower member).
        if shared.cfg.rank > 0 {
            for peer in shared.cfg.rank + 1..shared.cfg.size {
                let addr = shared.addrs.lock()[peer].expect("welcome filled the address book");
                let stream = shared.dial(addr, deadline)?;
                shared.send_hello(&stream)?;
                shared.install_stream(peer, stream)?;
            }
        }
        shared.wait_mesh(deadline)?;
        pdc_trace::instant(
            "net",
            "mesh_formed",
            vec![
                ("rank", shared.cfg.rank.into()),
                ("np", shared.cfg.size.into()),
            ],
        );
        Ok(Arc::new(TcpTransport { shared }))
    }

    /// This process's listen address.
    pub fn listen_addr(&self) -> SocketAddr {
        self.shared.listen_addr
    }

    /// The config this transport was built from.
    pub fn config(&self) -> &NetConfig {
        &self.shared.cfg
    }

    /// Abruptly kill every socket and thread *without* saying goodbye —
    /// what `kill -9` does to a real process, minus the process exit.
    /// Peers get no Bye and no crash notice; they must notice the
    /// silence themselves (heartbeat timeout / redial exhaustion).
    /// For failure-detection tests and chaos drills.
    pub fn sever(&self) {
        let sh = &self.shared;
        if sh.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for peer in &sh.peers {
            *peer.link.lock() = None;
        }
        // Unblock the accept loop: flip the listener to non-blocking so
        // its next wakeup observes the flag.
        let _ = sh.listener.set_nonblocking(true);
        let _ = TcpStream::connect_timeout(&sh.listen_addr, Duration::from_millis(200));
        sh.stop_threads();
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.shared.cfg.rank
    }

    fn size(&self) -> usize {
        self.shared.cfg.size
    }

    fn hostnames(&self) -> Vec<String> {
        // Localhost cluster — same name thread-mode worlds default to,
        // so patternlet output is backend-independent.
        vec!["localhost".to_owned(); self.shared.cfg.size]
    }

    fn start(&self, wire: WireHandle) {
        {
            let mut slot = self.shared.handle.lock();
            assert!(slot.is_none(), "transport started twice");
            *slot = Some(wire);
        }
        self.shared.handle_cv.notify_all();
    }

    fn send_frame(&self, dst: usize, frame: WireFrame) -> pdc_mpc::error::Result<FrameOutcome> {
        self.shared.send(
            dst,
            &Frame {
                kind: FrameKind::Data,
                src: frame.src_group as u32,
                tag: frame.tag,
                comm_id: frame.comm_id,
                ack_id: frame.ack_id,
                overtake: frame.overtake,
                retransmit: frame.exempt,
                payload: frame.payload,
            },
        );
        Ok(FrameOutcome::Sent)
    }

    fn announce_crash(&self) {
        let me = self.shared.cfg.rank;
        for peer in 0..self.shared.cfg.size {
            if peer != me {
                self.shared
                    .send(peer, &Frame::control(FrameKind::Dead, me as u32));
            }
        }
    }

    fn shutdown(&self) {
        let sh = &self.shared;
        if sh.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Every frame sent before this call is already on the socket,
        // so each peer reads it before our Bye. Readers and the
        // detector exit on their next timeout poll (or the peer's Bye).
        let me = sh.cfg.rank as u32;
        for peer in 0..sh.cfg.size {
            if peer != sh.cfg.rank {
                sh.send(peer, &Frame::control(FrameKind::Bye, me));
            }
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&sh.listen_addr, Duration::from_millis(200));
        sh.stop_threads();
        pdc_trace::instant(
            "net",
            "transport_shutdown",
            vec![("rank", sh.cfg.rank.into())],
        );
    }

    fn progress(
        &self,
        link: Option<usize>,
        deadline: Option<Instant>,
        ready: &mut dyn FnMut() -> bool,
    ) {
        let sh = &self.shared;
        match link {
            Some(peer) if peer < sh.cfg.size && peer != sh.cfg.rank => {
                sh.lead(peer, deadline, ready)
            }
            // A wait several links can end: every pump reads.
            _ => (0..sh.cfg.size)
                .filter(|&p| p != sh.cfg.rank)
                .for_each(|peer| sh.release(peer)),
        }
    }
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// Write `frame` to `dst` on the calling thread, holding the link
    /// lock for the whole frame (it is encoded before the lock is taken).
    /// Vacuous when no link is up; a failed write brings the link down;
    /// a Bye retires the link.
    fn send<P: AsRef<[u8]>>(self: &Arc<Self>, dst: usize, frame: &Frame<P>) {
        let bytes = frame.encode();
        let peer = &self.peers[dst];
        let mut link = peer.link.lock();
        let Some((stream, generation)) = link.as_ref() else {
            return;
        };
        if (&*stream).write_all(&bytes).is_err() {
            let generation = *generation;
            drop(link);
            return self.link_down(dst, generation);
        }
        if frame.kind == FrameKind::Bye {
            *link = None;
        }
        drop(link);
        peer.last_sent.store(self.now_ns(), Ordering::Relaxed);
        if frame.kind == FrameKind::Heartbeat {
            pdc_trace::counter("net", "heartbeats_sent", 1);
        } else {
            pdc_trace::counter("net", "frames_sent", 1);
            pdc_trace::counter("net", "bytes_sent", bytes.len() as i64);
        }
    }

    /// Block until `start` has handed over the wire handle (reader pumps
    /// can outrun `World::attach`); `None` means shutdown won the race.
    fn wait_handle(&self) -> Option<WireHandle> {
        let mut guard = self.handle.lock();
        loop {
            if let Some(h) = guard.as_ref() {
                return Some(h.clone());
            }
            if self.is_shutting_down() {
                return None;
            }
            let _ = self
                .handle_cv
                .wait_for(&mut guard, Duration::from_millis(50));
        }
    }

    // --- join ---------------------------------------------------------

    /// Rank 0 publishes its listen address (atomically, so a joiner
    /// never reads a half-written file).
    fn publish_rendezvous(&self) -> io::Result<()> {
        if let Some(dir) = self.cfg.rendezvous.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = self.cfg.rendezvous.with_extension("tmp");
        std::fs::write(&tmp, self.listen_addr.to_string())?;
        std::fs::rename(&tmp, &self.cfg.rendezvous)
    }

    /// Rank 0's side of the join: collect one Hello per joiner, then
    /// answer each with the complete address book and keep the
    /// connection as the mesh link to that rank.
    fn rendezvous_rank0(self: &Arc<Self>, deadline: Instant) -> io::Result<()> {
        let pending = self.accept_hellos(deadline)?;
        let addrs: Vec<String> = {
            let book = self.addrs.lock();
            book.iter()
                .map(|a| a.expect("all ranks checked in").to_string())
                .collect()
        };
        let welcome = Welcome {
            session: self.cfg.session,
            addrs,
        };
        let payload =
            serde_json::to_vec(&welcome).map_err(|_| bad("unencodable welcome payload"))?;
        for (rank, stream) in pending {
            let mut f = Frame::control(FrameKind::Welcome, 0);
            f.payload = payload.clone();
            f.write_to(&mut &stream)?;
            self.install_stream(rank, stream)?;
        }
        Ok(())
    }

    /// Accept until every joiner has said Hello. The accept blocks; at
    /// the deadline a timer thread wakes it with a throwaway connection
    /// to our own listener (as `shutdown` wakes the accept loop).
    fn accept_hellos(&self, deadline: Instant) -> io::Result<Vec<(usize, TcpStream)>> {
        let np = self.cfg.size;
        let done = (Mutex::new(false), Condvar::new());
        thread::scope(|s| {
            s.spawn(|| {
                let mut finished = done.0.lock();
                while !*finished && !done.1.wait_until(&mut finished, deadline).timed_out() {}
                if !*finished {
                    let _ =
                        TcpStream::connect_timeout(&self.listen_addr, Duration::from_millis(200));
                }
            });
            let mut pending: Vec<(usize, TcpStream)> = Vec::new();
            let mut seen = vec![false; np];
            seen[0] = true;
            let result = loop {
                if pending.len() == np - 1 {
                    break Ok(pending);
                }
                if Instant::now() > deadline {
                    break Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("rendezvous: {}/{} ranks checked in", pending.len() + 1, np),
                    ));
                }
                let stream = match self.listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) => break Err(e),
                };
                // A malformed or duplicate Hello (or the timer's wake-up)
                // just drops the connection; the real joiner can still
                // show up.
                if let Ok(rank) = self.read_hello(&stream) {
                    if !seen[rank] {
                        seen[rank] = true;
                        pending.push((rank, stream));
                    }
                }
            };
            *done.0.lock() = true;
            done.1.notify_all();
            result
        })
    }

    /// A joiner's side: poll the rendezvous file, dial rank 0,
    /// introduce ourselves, learn the address book from the Welcome.
    fn join_via_rank0(self: &Arc<Self>, deadline: Instant) -> io::Result<()> {
        let addr0 = loop {
            if let Ok(text) = std::fs::read_to_string(&self.cfg.rendezvous) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    break addr;
                }
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("no rendezvous file at {}", self.cfg.rendezvous.display()),
                ));
            }
            thread::sleep(Duration::from_millis(10));
        };
        let stream = self.dial(addr0, deadline)?;
        self.send_hello(&stream)?;
        stream.set_read_timeout(Some(self.cfg.connect_timeout))?;
        let frame = Frame::read_from(&mut &stream)?;
        if frame.kind != FrameKind::Welcome {
            return Err(bad("expected a welcome from rank 0"));
        }
        let welcome: Welcome =
            serde_json::from_slice(&frame.payload).map_err(|_| bad("bad welcome payload"))?;
        if welcome.session != self.cfg.session {
            return Err(bad("welcome from a different session"));
        }
        if welcome.addrs.len() != self.cfg.size {
            return Err(bad("welcome address book has wrong size"));
        }
        {
            let mut book = self.addrs.lock();
            for (rank, text) in welcome.addrs.iter().enumerate() {
                book[rank] = Some(text.parse().map_err(|_| bad("bad address in welcome"))?);
            }
        }
        self.install_stream(0, stream)
    }

    /// Dial with short per-attempt timeouts until the join deadline:
    /// the peer's listener may not be accepting yet.
    fn dial(&self, addr: SocketAddr, deadline: Instant) -> io::Result<TcpStream> {
        loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                Ok(stream) => return Ok(stream),
                Err(e) => {
                    if Instant::now() > deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("dialing {addr}: {e}"),
                        ));
                    }
                    thread::sleep(Duration::from_millis(25));
                }
            }
        }
    }

    fn send_hello(&self, stream: &TcpStream) -> io::Result<()> {
        let hello = Hello {
            session: self.cfg.session,
            rank: self.cfg.rank as u32,
            np: self.cfg.size as u32,
            listen: self.listen_addr.to_string(),
        };
        let mut f = Frame::control(FrameKind::Hello, self.cfg.rank as u32);
        f.payload = serde_json::to_vec(&hello).map_err(|_| bad("unencodable hello payload"))?;
        f.write_to(&mut &*stream)
    }

    /// Read and validate a Hello off a fresh connection; records the
    /// peer's listen address and returns its rank.
    fn read_hello(&self, stream: &TcpStream) -> io::Result<usize> {
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        let frame = Frame::read_from(&mut &*stream)?;
        if frame.kind != FrameKind::Hello {
            return Err(bad("expected a hello"));
        }
        let hello: Hello =
            serde_json::from_slice(&frame.payload).map_err(|_| bad("bad hello payload"))?;
        if hello.session != self.cfg.session {
            return Err(bad("hello from a different session"));
        }
        if hello.np as usize != self.cfg.size {
            return Err(bad("hello disagrees on world size"));
        }
        let peer = hello.rank as usize;
        if peer >= self.cfg.size || peer == self.cfg.rank {
            return Err(bad("hello from an impossible rank"));
        }
        if let Ok(addr) = hello.listen.parse() {
            self.addrs.lock()[peer] = Some(addr);
        }
        Ok(peer)
    }

    /// Block until a link to every peer is up; each install signals.
    fn wait_mesh(&self, deadline: Instant) -> io::Result<()> {
        let mut guard = self.mesh.lock();
        loop {
            let missing = (0..self.cfg.size)
                .filter(|&p| p != self.cfg.rank && self.peers[p].link.lock().is_none())
                .count();
            if missing == 0 {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("mesh formation: {missing} peers never linked"),
                ));
            }
            let _ = self.mesh_cv.wait_until(&mut guard, deadline);
        }
    }

    // --- links --------------------------------------------------------

    /// Which member of a pair (re)dials when the link is down: pairs
    /// with rank 0 are dialed by the nonzero member (that is what the
    /// rendezvous address book makes possible); other pairs by the
    /// lower rank. Deterministic, so a pair never double-dials.
    fn dialer_for(&self, peer: usize) -> bool {
        let me = self.cfg.rank;
        if peer == 0 {
            return true; // me != 0: pairs exclude self
        }
        if me == 0 {
            return false;
        }
        me < peer
    }

    /// Wire a fresh stream up as the link to `peer`: bump the link
    /// generation, mark connected, install the socket for senders and
    /// its read side for readers, and spawn the reader pump.
    fn install_stream(self: &Arc<Self>, peer: usize, stream: TcpStream) -> io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.cfg.heartbeat_interval))?;
        // A peer that stops draining (killed process, full buffers)
        // must fail the sender's write, not wedge it.
        stream.set_write_timeout(Some(Duration::from_secs(1)))?;
        let reader = stream.try_clone()?;
        let p = &self.peers[peer];
        let generation = {
            let mut status = p.status.lock();
            let generation = p.generation.fetch_add(1, Ordering::SeqCst) + 1;
            *status = PeerStatus::Connected;
            generation
        };
        let now = self.now_ns();
        p.last_seen.store(now, Ordering::Relaxed);
        p.last_sent.store(now, Ordering::Relaxed);
        {
            // A thread still holding the old link's side drops it when it
            // finds the generation moved on.
            let mut slot = p.read.lock();
            slot.side = Some(ReadSide {
                stream: reader,
                generation,
                buf: FrameBuf::default(),
            });
            slot.generation = generation;
            p.returned.notify_all();
        }
        *p.link.lock() = Some((stream, generation));
        let sh = Arc::clone(self);
        let h = thread::spawn(move || sh.reader_pump(peer, generation));
        self.threads.lock().push(h);
        drop(self.mesh.lock());
        self.mesh_cv.notify_all();
        Ok(())
    }

    /// Read link `generation` to `peer` whenever no rank has waited on it
    /// for a heartbeat interval; otherwise sleep until that lease runs
    /// out or the rank gives the link back. Once the transport stops it
    /// drains the link regardless, until a read times out (or the peer's
    /// Bye), and closes it: closing a socket with frames unread would
    /// reset the connection under the peer's last reads.
    fn reader_pump(self: Arc<Self>, peer: usize, generation: u64) {
        let p = &self.peers[peer];
        *p.pump.lock() = Some(thread::current());
        let interval = self.cfg.heartbeat_interval;
        while p.generation.load(Ordering::SeqCst) == generation {
            let idle = self.since(p.led.load(Ordering::Relaxed));
            if idle < interval && !self.is_shutting_down() {
                thread::park_timeout(interval - idle);
                continue;
            }
            match self.take_side(peer, None) {
                Take::Side(mut side) => {
                    let got = side.next_frame();
                    let timed_out = matches!(got, Ok(None));
                    if !self.after_read(peer, side, got) || timed_out && self.is_shutting_down() {
                        break;
                    }
                }
                Take::Busy => thread::park_timeout(interval),
                Take::NoLink => break,
            }
        }
        if self.is_shutting_down() {
            self.close_read(peer);
        }
        pdc_trace::flush_thread();
    }

    /// How long ago `ns` (since the transport epoch) was; a zero `ns`
    /// (never) is long ago.
    fn since(&self, ns: u64) -> Duration {
        if ns == 0 {
            return Duration::MAX;
        }
        Duration::from_nanos(self.now_ns().saturating_sub(ns))
    }

    /// A rank blocked on `peer`'s link reads it (see
    /// [`Transport::progress`]): frame by frame until `ready`, taking the
    /// read side from whoever holds it at a frame boundary. Declines —
    /// giving the link back to the pump — when no link is up, the
    /// transport is stopping, or the deadline is nearer than one read
    /// timeout.
    fn lead(
        self: &Arc<Self>,
        peer: usize,
        deadline: Option<Instant>,
        ready: &mut dyn FnMut() -> bool,
    ) {
        let p = &self.peers[peer];
        let interval = self.cfg.heartbeat_interval;
        loop {
            if ready() {
                return;
            }
            let now = Instant::now();
            let turn_ends = now.checked_add(interval);
            let near = match (deadline, turn_ends) {
                (Some(dl), Some(end)) => dl < end,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if near || self.is_shutting_down() {
                break;
            }
            p.led.store(self.now_ns().max(1), Ordering::Relaxed);
            match self.take_side(peer, turn_ends) {
                Take::Side(mut side) => {
                    let got = side.next_frame();
                    if matches!(got, Ok(Some(_))) {
                        self.frames_led.fetch_add(1, Ordering::Relaxed);
                    }
                    self.after_read(peer, side, got);
                }
                Take::Busy => {}
                Take::NoLink => break,
            }
        }
        self.release(peer);
    }

    /// Give `peer`'s link back to its reader pump at once: a rank no
    /// longer reads it while it waits.
    fn release(&self, peer: usize) {
        let p = &self.peers[peer];
        if p.led.swap(0, Ordering::Relaxed) != 0 {
            if let Some(pump) = p.pump.lock().as_ref() {
                pump.unpark();
            }
        }
    }

    /// Take `peer`'s read side. If another thread holds it, a rank
    /// (`until` set) waits for its return until `until` and then reports
    /// `Busy` all the same: the frame handed back may be the one it
    /// waits for, so it checks its wait before it reads.
    fn take_side(&self, peer: usize, until: Option<Instant>) -> Take {
        let p = &self.peers[peer];
        let mut slot = p.read.lock();
        if let Some(side) = slot.side.take() {
            return Take::Side(side);
        }
        if slot.generation == 0 {
            return Take::NoLink;
        }
        if let Some(until) = until {
            slot.waiters += 1;
            let _ = p.returned.wait_until(&mut slot, until);
            slot.waiters -= 1;
        }
        Take::Busy
    }

    /// Finish one turn on a link, on the pump or a rank alike: hand the
    /// frame read (if any) to [`Shared::on_frame`] and put the side back,
    /// or retire it when the link ended. Returns whether it is still read.
    fn after_read(
        self: &Arc<Self>,
        peer: usize,
        side: ReadSide,
        got: io::Result<Option<Frame<Bytes>>>,
    ) -> bool {
        let generation = side.generation;
        let open = match got {
            Ok(None) => true,
            Ok(Some(frame)) => self.on_frame(peer, generation, frame),
            Err(_) => {
                // EOF, reset, or a corrupt frame: the stream is no longer
                // trustworthy, so the link comes down whole.
                if !self.is_shutting_down() {
                    self.link_down(peer, generation);
                }
                false
            }
        };
        let p = &self.peers[peer];
        let mut slot = p.read.lock();
        if slot.generation == generation {
            if open {
                slot.side = Some(side);
            } else {
                slot.generation = 0;
            }
        }
        if slot.waiters > 0 {
            p.returned.notify_all();
        }
        open
    }

    /// Handle one frame of link `generation` to `peer`, whichever thread
    /// read it. Returns `false` when the link ends with it.
    fn on_frame(self: &Arc<Self>, peer: usize, generation: u64, frame: Frame<Bytes>) -> bool {
        let now = self.now_ns();
        let prev_seen = self.peers[peer].last_seen.swap(now, Ordering::Relaxed);
        pdc_trace::counter("net", "frames_received", 1);
        match frame.kind {
            FrameKind::Data => {
                let Some(handle) = self.wait_handle() else {
                    return false;
                };
                let ack = if frame.ack_id != 0 {
                    let sh = Arc::clone(self);
                    let id = frame.ack_id;
                    let me = self.cfg.rank as u32;
                    Some(Box::new(move || {
                        let mut f = Frame::control(FrameKind::Ack, me);
                        f.ack_id = id;
                        sh.send(peer, &f);
                        pdc_trace::counter("net", "acks_sent", 1);
                    }) as Box<dyn FnOnce() + Send>)
                } else {
                    None
                };
                handle.deliver(
                    WireFrame {
                        comm_id: frame.comm_id,
                        src_group: frame.src as usize,
                        tag: frame.tag,
                        payload: frame.payload,
                        ack_id: frame.ack_id,
                        overtake: frame.overtake,
                        exempt: frame.retransmit,
                    },
                    ack,
                );
            }
            FrameKind::Ack => {
                let Some(handle) = self.wait_handle() else {
                    return false;
                };
                handle.complete_ack(frame.ack_id);
            }
            FrameKind::Heartbeat => {
                // The last_seen refresh was the point; additionally
                // record how long this link had been silent. The
                // distribution's tail is the failure detector's
                // noise floor — a p99 near the timeout means the
                // detector is one hiccup away from a false verdict.
                if prev_seen != 0 && now > prev_seen {
                    pdc_trace::hist("net", "heartbeat_gap", now - prev_seen);
                }
            }
            FrameKind::Dead => {
                let Some(handle) = self.wait_handle() else {
                    return false;
                };
                if handle.mark_dead(frame.src as usize) {
                    pdc_trace::counter("net", "crash_notices", 1);
                }
            }
            FrameKind::Bye => {
                *self.peers[peer].status.lock() = PeerStatus::Closed;
                *self.peers[peer].link.lock() = None;
                return false;
            }
            FrameKind::Hello | FrameKind::Welcome => {
                // Handshake frames mid-stream: protocol violation.
                self.link_down(peer, generation);
                return false;
            }
        }
        true
    }

    /// A sender or the reader pump of link generation `generation` saw
    /// the link fail. First reporter wins; the dialing side starts a
    /// reconnect loop,
    /// the accepting side waits to be re-dialed (or for the failure
    /// detector's verdict).
    fn link_down(self: &Arc<Self>, peer: usize, generation: u64) {
        if self.is_shutting_down() {
            return;
        }
        {
            let mut status = self.peers[peer].status.lock();
            if self.peers[peer].generation.load(Ordering::SeqCst) != generation {
                return; // a stale link's failure, already replaced
            }
            if *status != PeerStatus::Connected {
                return;
            }
            *status = PeerStatus::Down;
        }
        // Only this generation's socket: a successor installed since the
        // status check stays up.
        self.peers[peer]
            .link
            .lock()
            .take_if(|(_, g)| *g == generation);
        pdc_trace::instant("net", "link_down", vec![("peer", peer.into())]);
        if self.dialer_for(peer) {
            let sh = Arc::clone(self);
            let h = thread::spawn(move || sh.reconnect_loop(peer));
            self.threads.lock().push(h);
        }
    }

    /// Re-dial a down peer on the retry policy's backoff schedule.
    /// Success re-installs the link; exhaustion is a death verdict.
    fn reconnect_loop(self: Arc<Self>, peer: usize) {
        let retry = self.cfg.retry;
        let a = self.cfg.rank.min(peer) as u64;
        let b = self.cfg.rank.max(peer) as u64;
        let stream_key = 0x52434E ^ (a << 32) ^ b; // "RCN"
        for attempt in 1..=retry.max_attempts {
            let known_dead = self.handle.lock().as_ref().is_some_and(|h| h.is_dead(peer));
            if self.is_shutting_down() || known_dead {
                pdc_trace::flush_thread();
                return;
            }
            thread::sleep(retry.backoff(self.cfg.session, stream_key, attempt));
            let addr = self.addrs.lock()[peer];
            let Some(addr) = addr else { continue };
            let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(500)) else {
                continue;
            };
            if self.send_hello(&stream).is_err() {
                continue;
            }
            if self.install_stream(peer, stream).is_ok() {
                pdc_trace::counter("net", "reconnects", 1);
                pdc_trace::instant("net", "reconnected", vec![("peer", peer.into())]);
                pdc_trace::flush_thread();
                return;
            }
        }
        // The redial budget is spent: the dialer-side death verdict.
        if let Some(handle) = self.wait_handle() {
            if handle.mark_dead(peer) {
                pdc_trace::counter("net", "deaths_detected", 1);
                pdc_trace::instant("net", "redial_exhausted", vec![("peer", peer.into())]);
            }
        }
        pdc_trace::flush_thread();
    }

    // --- background threads -------------------------------------------

    /// Admit inbound connections after the mesh formed: re-dials of a
    /// broken link, or (for rank 0) nothing — but the loop runs
    /// everywhere for symmetry.
    fn accept_loop(self: Arc<Self>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.is_shutting_down() {
                        break;
                    }
                    // Bad handshakes just drop the connection.
                    if let Ok(peer) = self.read_hello(&stream) {
                        let _ = self.install_stream(peer, stream);
                    }
                }
                Err(_) => {
                    if self.is_shutting_down() {
                        break;
                    }
                }
            }
        }
        pdc_trace::flush_thread();
    }

    /// Every heartbeat interval: heartbeat each link idle for at least
    /// one interval, then — once `start` has handed over the wire
    /// handle — scan every peer's `last_seen` clock. Silence past the
    /// heartbeat timeout is the acceptor-side death verdict. Peers that
    /// said goodbye are exempt — their silence is retirement, not death.
    fn detector_loop(self: Arc<Self>) {
        let interval_ns = self.cfg.heartbeat_interval.as_nanos() as u64;
        let timeout_ns = self.cfg.heartbeat_timeout.as_nanos() as u64;
        let me = self.cfg.rank;
        while !self.is_shutting_down() {
            // Read before the sleep, so the first verdict comes at least
            // one interval after `start`.
            let handle = self.handle.lock().clone();
            thread::sleep(self.cfg.heartbeat_interval);
            let now = self.now_ns();
            for peer in (0..self.cfg.size).filter(|&p| p != me) {
                let sent = self.peers[peer].last_sent.load(Ordering::Relaxed);
                if now.saturating_sub(sent) >= interval_ns {
                    self.send(peer, &Frame::control(FrameKind::Heartbeat, me as u32));
                }
                let Some(handle) = &handle else { continue };
                if handle.is_dead(peer) || *self.peers[peer].status.lock() == PeerStatus::Closed {
                    continue;
                }
                let seen = self.peers[peer].last_seen.load(Ordering::Relaxed);
                if now.saturating_sub(seen) > timeout_ns && handle.mark_dead(peer) {
                    pdc_trace::counter("net", "deaths_detected", 1);
                    pdc_trace::instant("net", "heartbeat_timeout", vec![("peer", peer.into())]);
                }
            }
        }
        pdc_trace::flush_thread();
    }

    /// After the shutdown flag is set: wake and join every thread this
    /// transport ever spawned, then close the links' read sides. Reader
    /// pumps and the detector notice the flag within one heartbeat
    /// interval (all socket reads are timeout-bounded); threads spawned
    /// *while* draining (a last reconnect) are caught by re-checking.
    fn stop_threads(&self) {
        self.handle_cv.notify_all();
        for p in &self.peers {
            if let Some(pump) = p.pump.lock().as_ref() {
                pump.unpark();
            }
        }
        self.join_threads();
        for peer in 0..self.cfg.size {
            self.close_read(peer);
        }
    }

    /// Drop `peer`'s read side, closing the socket once its write side
    /// is gone too.
    fn close_read(&self, peer: usize) {
        let p = &self.peers[peer];
        let mut slot = p.read.lock();
        slot.side = None;
        slot.generation = 0;
        p.returned.notify_all();
    }

    fn join_threads(&self) {
        loop {
            let handle = self.threads.lock().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_mpc::prelude::*;
    use std::sync::atomic::AtomicUsize;

    static SESSION_SALT: AtomicUsize = AtomicUsize::new(0);

    /// A scratch dir + session id unique to one test.
    fn scratch(name: &str) -> (PathBuf, u64) {
        let salt = SESSION_SALT.fetch_add(1, Ordering::Relaxed);
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("pdc-net-{name}-{pid}-{salt}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let session = ((pid as u64) << 20) | salt as u64;
        (dir, session)
    }

    /// Run `body(rank)` for every rank on its own thread, each with a
    /// fresh transport joined to the same session — np processes
    /// faked as np threads, exercising the full TCP path.
    fn with_mesh<T: Send + 'static>(
        name: &str,
        np: usize,
        tune: impl Fn(&mut NetConfig) + Sync,
        body: impl Fn(usize, Arc<TcpTransport>) -> T + Sync,
    ) -> Vec<T> {
        let (dir, session) = scratch(name);
        let rendezvous = dir.join("rendezvous.addr");
        let results: Vec<T> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..np)
                .map(|rank| {
                    let rendezvous = rendezvous.clone();
                    let tune = &tune;
                    let body = &body;
                    scope.spawn(move || {
                        let mut cfg = NetConfig::new(rank, np, session, rendezvous);
                        tune(&mut cfg);
                        let transport = TcpTransport::connect(cfg).expect("join");
                        body(rank, transport)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let _ = std::fs::remove_dir_all(&dir);
        results
    }

    #[test]
    fn mesh_forms_and_ring_passes_messages() {
        let outputs = with_mesh(
            "ring",
            3,
            |_| {},
            |rank, transport| {
                let comm = World::new(3).attach(transport.clone() as Arc<dyn pdc_mpc::Transport>);
                let next = (rank + 1) % 3;
                let prev = (rank + 2) % 3;
                comm.send(next, 7, &format!("from {rank}")).unwrap();
                let got: String = comm.recv(Source::Rank(prev), TagSel::Tag(7)).unwrap();
                transport.shutdown();
                got
            },
        );
        assert_eq!(
            outputs,
            vec![
                "from 2".to_string(),
                "from 0".to_string(),
                "from 1".to_string()
            ]
        );
    }

    #[test]
    fn ssend_and_send_reliable_cross_the_wire() {
        let sums = with_mesh(
            "rel",
            2,
            |_| {},
            |rank, transport| {
                let comm = World::new(2).attach(transport.clone() as Arc<dyn pdc_mpc::Transport>);
                let out = if rank == 0 {
                    comm.ssend(1, 1, &10u64).unwrap();
                    comm.send_reliable(1, 2, &32u64).unwrap();
                    0
                } else {
                    let a: u64 = comm.recv(Source::Rank(0), TagSel::Tag(1)).unwrap();
                    let b: u64 = comm.recv(Source::Rank(0), TagSel::Tag(2)).unwrap();
                    a + b
                };
                transport.shutdown();
                out
            },
        );
        assert_eq!(sums, vec![0, 42]);
    }

    #[test]
    fn collectives_run_over_the_wire() {
        let results = with_mesh(
            "coll",
            4,
            |_| {},
            |rank, transport| {
                let comm = World::new(4).attach(transport.clone() as Arc<dyn pdc_mpc::Transport>);
                let root_value = if rank == 0 { Some(99u64) } else { None };
                let b: u64 = comm.bcast(0, root_value).unwrap();
                let sum: u64 = comm.allreduce(rank as u64, ops::sum).unwrap();
                let gathered: Option<Vec<u64>> = comm.gather(0, rank as u64).unwrap();
                transport.shutdown();
                (b, sum, gathered)
            },
        );
        for (rank, (b, sum, gathered)) in results.into_iter().enumerate() {
            assert_eq!(b, 99);
            assert_eq!(sum, 6);
            if rank == 0 {
                assert_eq!(gathered, Some(vec![0, 1, 2, 3]));
            } else {
                assert_eq!(gathered, None);
            }
        }
    }

    #[test]
    fn severed_peer_is_detected_and_survivors_shrink() {
        let fast = |cfg: &mut NetConfig| {
            cfg.heartbeat_interval = Duration::from_millis(20);
            cfg.heartbeat_timeout = Duration::from_millis(400);
        };
        let survivors = with_mesh("sever", 3, fast, |rank, transport| {
            let comm = World::new(3).attach(transport.clone() as Arc<dyn pdc_mpc::Transport>);
            if rank == 2 {
                // Die without a goodbye: no Bye, no crash notice.
                transport.sever();
                return 0;
            }
            // Survivors block on the dead rank until the failure
            // detector (heartbeat timeout or redial exhaustion)
            // interrupts them with PeerGone.
            let err = comm
                .recv::<u64>(Source::Rank(2), TagSel::Tag(5))
                .unwrap_err();
            assert!(
                matches!(err, MpcError::PeerGone { rank: 2 }),
                "expected PeerGone for rank 2, got {err:?}"
            );
            let shrunk = comm.shrink().unwrap();
            assert_eq!(shrunk.size(), 2);
            // The shrunk world still works end to end.
            let total: u64 = shrunk
                .allreduce(10 + shrunk.rank() as u64, ops::sum)
                .unwrap();
            transport.shutdown();
            total
        });
        assert_eq!(survivors, vec![21, 21, 0]);
    }

    /// Run `body` on its own thread and fail the test if it has not
    /// finished within 10 s, so a lost frame fails instead of hanging.
    fn watchdog<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
        let deadline = Instant::now() + Duration::from_secs(10);
        let h = thread::spawn(body);
        while !h.is_finished() {
            assert!(
                Instant::now() < deadline,
                "watchdog: still running after 10 s"
            );
            thread::sleep(Duration::from_millis(10));
        }
        h.join().unwrap()
    }

    /// The `seq`-th payload of sender thread `t`: 0 B to 4 KiB, with
    /// contents that name both.
    fn payload(t: usize, seq: usize) -> Vec<u8> {
        let len = (seq * 613 + t * 97) % 4097;
        (0..len).map(|i| (i * 31 + seq * 7 + t) as u8).collect()
    }

    #[test]
    fn concurrent_senders_never_tear_frames() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 500;
        let generations = watchdog(|| {
            let busy_detector = |cfg: &mut NetConfig| {
                cfg.heartbeat_interval = Duration::from_millis(1);
                cfg.heartbeat_timeout = Duration::from_secs(5);
            };
            with_mesh("writers", 2, busy_detector, |rank, transport| {
                let comm = World::new(2).attach(transport.clone() as Arc<dyn pdc_mpc::Transport>);
                let other = 1 - rank;
                let generation = || {
                    transport.shared.peers[other]
                        .generation
                        .load(Ordering::SeqCst)
                };
                let before = generation();
                if rank == 0 {
                    thread::scope(|s| {
                        for t in 0..THREADS {
                            let comm = comm.clone();
                            s.spawn(move || {
                                for seq in 0..PER_THREAD {
                                    comm.send_bytes(1, t as i32, payload(t, seq).into())
                                        .unwrap();
                                    // Idle the link now and then, so the
                                    // detector's heartbeats join the writers.
                                    if seq % 100 == 99 {
                                        thread::sleep(Duration::from_millis(3));
                                    }
                                }
                            });
                        }
                    });
                    comm.recv::<u8>(Source::Rank(1), TagSel::Tag(99)).unwrap();
                } else {
                    // Arrival order per sender thread must be its send order.
                    let mut next = [0usize; THREADS];
                    for _ in 0..THREADS * PER_THREAD {
                        let (bytes, status) =
                            comm.recv_bytes(Source::Rank(0), TagSel::Any).unwrap();
                        let t = status.tag as usize;
                        assert_eq!(&bytes[..], &payload(t, next[t])[..], "thread {t}");
                        next[t] += 1;
                    }
                    assert_eq!(next, [PER_THREAD; THREADS]);
                    comm.send(0, 99, &0u8).unwrap();
                }
                let after = generation();
                transport.shutdown();
                (before, after)
            })
        });
        for (before, after) in generations {
            assert_eq!(before, after, "a link came down under concurrent senders");
        }
    }

    #[test]
    fn joined_but_unstarted_mesh_keeps_heartbeating() {
        watchdog(|| {
            let fast = |cfg: &mut NetConfig| {
                cfg.heartbeat_interval = Duration::from_millis(20);
                cfg.heartbeat_timeout = Duration::from_millis(400);
            };
            with_mesh("idle", 2, fast, |rank, transport| {
                // Idle for 2.5 heartbeat timeouts before `World::attach`;
                // the peer's heartbeats must keep its clock fresh.
                thread::sleep(Duration::from_secs(1));
                let sh = &transport.shared;
                let seen = sh.peers[1 - rank].last_seen.load(Ordering::Relaxed);
                let silent = Duration::from_nanos(sh.now_ns().saturating_sub(seen));
                assert!(
                    silent < sh.cfg.heartbeat_timeout,
                    "peer silent for {silent:?}"
                );
                let comm = World::new(2).attach(transport.clone() as Arc<dyn pdc_mpc::Transport>);
                // Several detector ticks after `start`, with no traffic.
                thread::sleep(Duration::from_millis(100));
                assert!(!comm.any_failed(), "an idle, healthy peer was convicted");
                if rank == 0 {
                    comm.send(1, 4, &7u64).unwrap();
                } else {
                    assert_eq!(
                        comm.recv::<u64>(Source::Rank(0), TagSel::Tag(4)).unwrap(),
                        7
                    );
                }
                comm.barrier().unwrap();
                transport.shutdown();
            });
        });
    }

    #[test]
    fn frames_sent_before_shutdown_arrive_before_bye() {
        const FRAMES: usize = 200;
        watchdog(|| {
            with_mesh(
                "bye",
                2,
                |_| {},
                |rank, transport| {
                    let comm =
                        World::new(2).attach(transport.clone() as Arc<dyn pdc_mpc::Transport>);
                    if rank == 0 {
                        for seq in 0..FRAMES {
                            comm.send(1, 5, &payload(seq % 4, seq * 8)).unwrap();
                        }
                        transport.shutdown();
                        return;
                    }
                    let closed = || *transport.shared.peers[0].status.lock() == PeerStatus::Closed;
                    while !closed() {
                        thread::sleep(Duration::from_millis(1));
                    }
                    // The reader has processed the Bye, so everything sent
                    // before it is already in the mailbox: no waiting.
                    for seq in 0..FRAMES {
                        let (got, _) = comm
                            .recv_timeout::<Vec<u8>>(
                                Source::Rank(0),
                                TagSel::Tag(5),
                                Duration::ZERO,
                            )
                            .unwrap();
                        assert_eq!(got, payload(seq % 4, seq * 8), "frame {seq}");
                    }
                    transport.shutdown();
                },
            );
        });
    }

    /// Frames `transport`'s rank has read itself while blocked.
    fn led(transport: &TcpTransport) -> u64 {
        transport.shared.frames_led.load(Ordering::Relaxed)
    }

    #[test]
    fn handover_round_trips_are_read_by_the_waiting_rank() {
        const TRIPS: u64 = 2000;
        let counts = watchdog(|| {
            with_mesh(
                "lead",
                2,
                |_| {},
                |rank, transport| {
                    let comm =
                        World::new(2).attach(transport.clone() as Arc<dyn pdc_mpc::Transport>);
                    for i in 0..TRIPS {
                        if rank == 0 {
                            comm.send(1, 1, &i).unwrap();
                            assert_eq!(
                                comm.recv::<u64>(Source::Rank(1), TagSel::Tag(2)).unwrap(),
                                i
                            );
                        } else {
                            let got: u64 = comm.recv(Source::Rank(0), TagSel::Tag(1)).unwrap();
                            comm.send(0, 2, &got).unwrap();
                        }
                    }
                    let led = led(&transport);
                    comm.barrier().unwrap();
                    transport.shutdown();
                    led
                },
            )
        });
        // Each rank received TRIPS data frames. The pump reads one only
        // when its rank has not waited on the link for a heartbeat
        // interval (100 ms), which a busy host may cause now and then.
        for (rank, led) in counts.into_iter().enumerate() {
            assert!(
                led >= TRIPS * 95 / 100,
                "rank {rank} read {led} of {TRIPS} frames"
            );
        }
    }

    #[test]
    fn handover_receive_started_while_the_pump_reads_completes() {
        let slow_reads = |cfg: &mut NetConfig| {
            cfg.heartbeat_interval = Duration::from_secs(1);
            cfg.heartbeat_timeout = Duration::from_secs(20);
        };
        watchdog(move || {
            with_mesh("pumping", 2, slow_reads, |rank, transport| {
                let comm = World::new(2).attach(transport.clone() as Arc<dyn pdc_mpc::Transport>);
                if rank == 0 {
                    for i in 0..2u64 {
                        thread::sleep(Duration::from_millis(200));
                        comm.send(1, 3, &i).unwrap();
                    }
                } else {
                    // No rank has waited on the link yet, so its pump sits
                    // in a one-second read when the receive starts; the
                    // frame hands the link over well before that read
                    // would time out.
                    thread::sleep(Duration::from_millis(50));
                    let start = Instant::now();
                    assert_eq!(
                        comm.recv::<u64>(Source::Rank(0), TagSel::Tag(3)).unwrap(),
                        0
                    );
                    assert!(
                        start.elapsed() < Duration::from_millis(900),
                        "{:?}",
                        start.elapsed()
                    );
                    assert_eq!(led(&transport), 0, "the pump read the first frame");
                    // The rank keeps the link for the next receive.
                    assert_eq!(
                        comm.recv::<u64>(Source::Rank(0), TagSel::Tag(3)).unwrap(),
                        1
                    );
                    assert_eq!(led(&transport), 1, "the rank read the second frame");
                }
                comm.barrier().unwrap();
                transport.shutdown();
            });
        });
    }

    #[test]
    fn handover_short_timeout_on_a_silent_link_is_exact() {
        let slow_reads = |cfg: &mut NetConfig| {
            cfg.heartbeat_interval = Duration::from_secs(1);
            cfg.heartbeat_timeout = Duration::from_secs(20);
        };
        watchdog(move || {
            with_mesh("silent", 2, slow_reads, |rank, transport| {
                let comm = World::new(2).attach(transport.clone() as Arc<dyn pdc_mpc::Transport>);
                // A led receive first, so the rank holds the link.
                if rank == 0 {
                    comm.send(1, 1, &0u8).unwrap();
                } else {
                    comm.recv::<u8>(Source::Rank(0), TagSel::Tag(1)).unwrap();
                    // Nothing ever comes on tag 2. A 5 ms wait must not
                    // block in a one-second read.
                    let waits: Vec<Duration> = (0..5)
                        .map(|_| {
                            let start = Instant::now();
                            let err = comm
                                .recv_timeout::<u8>(
                                    Source::Rank(0),
                                    TagSel::Tag(2),
                                    Duration::from_millis(5),
                                )
                                .unwrap_err();
                            assert!(matches!(err, MpcError::Timeout { .. }), "{err:?}");
                            start.elapsed()
                        })
                        .collect();
                    let best = *waits.iter().min().unwrap();
                    assert!(best < Duration::from_millis(20), "{waits:?}");
                    assert!(
                        waits.iter().all(|w| *w < Duration::from_millis(500)),
                        "{waits:?}"
                    );
                }
                comm.barrier().unwrap();
                transport.shutdown();
            });
        });
    }

    #[test]
    fn handover_polls_hand_the_link_back_to_the_pump() {
        let slow_reads = |cfg: &mut NetConfig| {
            cfg.heartbeat_interval = Duration::from_secs(1);
            cfg.heartbeat_timeout = Duration::from_secs(20);
        };
        watchdog(move || {
            with_mesh("poll", 2, slow_reads, |rank, transport| {
                let comm = World::new(2).attach(transport.clone() as Arc<dyn pdc_mpc::Transport>);
                if rank == 0 {
                    comm.send(1, 1, &0u8).unwrap();
                    thread::sleep(Duration::from_millis(50));
                    comm.send(1, 2, &0u8).unwrap();
                } else {
                    // The led receive leaves the rank holding the link for
                    // a second; polling must not wait that out.
                    comm.recv::<u8>(Source::Rank(0), TagSel::Tag(1)).unwrap();
                    let start = Instant::now();
                    while comm.iprobe(Source::Rank(0), TagSel::Tag(2)).is_none() {
                        thread::sleep(Duration::from_millis(1));
                    }
                    assert!(
                        start.elapsed() < Duration::from_millis(700),
                        "{:?}",
                        start.elapsed()
                    );
                    comm.recv::<u8>(Source::Rank(0), TagSel::Tag(2)).unwrap();
                }
                comm.barrier().unwrap();
                transport.shutdown();
            });
        });
    }

    #[test]
    fn handover_acks_reach_a_leading_sender() {
        const SENDS: u64 = 100;
        let counts = watchdog(|| {
            with_mesh(
                "acks",
                2,
                |_| {},
                |rank, transport| {
                    let comm =
                        World::new(2).attach(transport.clone() as Arc<dyn pdc_mpc::Transport>);
                    let mut sum = 0;
                    for i in 0..SENDS {
                        if rank == 0 {
                            comm.ssend(1, 1, &i).unwrap();
                            comm.send_reliable(1, 2, &i).unwrap();
                        } else {
                            sum += comm.recv::<u64>(Source::Rank(0), TagSel::Tag(1)).unwrap();
                            sum += comm.recv::<u64>(Source::Rank(0), TagSel::Tag(2)).unwrap();
                        }
                    }
                    let led = led(&transport);
                    comm.barrier().unwrap();
                    transport.shutdown();
                    (led, sum)
                },
            )
        });
        // Rank 0 waited for every ack itself and read most of them.
        assert!(
            counts[0].0 >= SENDS,
            "rank 0 read {} of {} acks",
            counts[0].0,
            2 * SENDS
        );
        assert_eq!(counts[1].1, SENDS * (SENDS - 1));
    }

    #[test]
    fn rank0_alone_gives_up_at_its_connect_budget() {
        let (dir, session) = scratch("alone");
        let mut cfg = NetConfig::new(0, 2, session, dir.join("rendezvous.addr"));
        cfg.connect_timeout = Duration::from_millis(200);
        let start = Instant::now();
        let err = watchdog(move || TcpTransport::connect(cfg).unwrap_err());
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_env_requires_all_variables() {
        // Deliberately does not set the variables; the error must name
        // the missing one. (Env mutation is avoided: tests run in
        // parallel threads of one process.)
        let err = NetConfig::from_env().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("PDC_NET_"));
    }

    #[test]
    fn sends_to_linkless_peers_are_vacuous() {
        let (dir, session) = scratch("solo");
        let cfg = NetConfig::new(0, 1, session, dir.join("rendezvous.addr"));
        let transport = TcpTransport::connect(cfg).unwrap();
        assert_eq!(transport.size(), 1);
        assert_eq!(transport.hostnames(), vec!["localhost".to_string()]);
        transport.shutdown();
        transport.shutdown(); // idempotent
        let _ = std::fs::remove_dir_all(&dir);
    }
}
