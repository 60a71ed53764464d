//! The watch hub: a watched request is its plain twin run with a
//! [`SocketWatchSink`] hooked into the race ([`watched`]). Frames go
//! through a bounded queue to a per-subscription writer thread, and
//! into a replay [`WatchChannel`] when the request carried an `id`, so
//! other connections can attach mid-race ([`attach_watch`]).

use super::{write_lines, Shared};
use crate::json::Json;
use crate::portfolio::WatchSink;
use crate::protocol::encode_error;
use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A watched race's replayable frame log. The origin connection's sink
/// appends every frame here (besides writing it to its own socket);
/// re-attaching connections replay from the start, then follow live
/// via the condvar until the terminal frame closes the log.
#[derive(Default)]
pub(super) struct WatchChannel {
    state: Mutex<WatchLog>,
    cond: Condvar,
}

#[derive(Default)]
struct WatchLog {
    /// Every frame emitted so far, already rendered to wire lines.
    frames: Vec<String>,
    /// Set once the terminal answer frame has been appended.
    done: bool,
}

impl WatchChannel {
    /// Appends one rendered frame and wakes every attached follower.
    fn push(&self, line: String) {
        // panic-safe: watch-log poisoning means an emitter already panicked;
        // taking followers down with it is the intended failure mode.
        let mut s = self.state.lock().expect("watch log poisoned");
        s.frames.push(line);
        drop(s);
        self.cond.notify_all();
    }

    /// Closes the log (the terminal frame is already in) and wakes
    /// followers one last time. Poison-tolerant: this also runs on the
    /// unwind path of a panicking watch handler, where followers must
    /// still be released rather than left waiting forever.
    fn finish(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.done = true;
        drop(s);
        self.cond.notify_all();
    }

    /// Streams the log to `writer` from the first frame: replays what
    /// is already there, then blocks for live frames until the log is
    /// closed and drained.
    fn stream_to(&self, writer: &mut TcpStream) -> std::io::Result<()> {
        let mut from = 0usize;
        loop {
            // panic-safe: as in push.
            let mut s = self.state.lock().expect("watch log poisoned");
            while s.frames.len() == from && !s.done {
                // panic-safe: as in push.
                s = self.cond.wait(s).expect("watch log poisoned");
            }
            // panic-safe: `from` only advances by lengths of batches taken
            // from `frames`, which never shrinks, so from <= frames.len().
            let batch: Vec<String> = s.frames[from..].to_vec();
            let done = s.done;
            drop(s);
            if batch.is_empty() && done {
                return Ok(());
            }
            from += batch.len();
            write_lines(writer, &batch)?;
        }
    }
}

/// Frames buffered for a watcher's socket before new ones are dropped.
/// The cap bounds both memory and the damage a stalled watcher can do:
/// racer threads only ever enqueue (or drop) and move on.
const WATCH_QUEUE_CAP: usize = 4096;

/// State shared between frame emitters, the watch writer thread and
/// [`SocketWatchSink::close`]: the pending socket frames plus the
/// flags that sequence teardown.
#[derive(Default)]
struct WatchQueueState {
    /// Rendered lines awaiting the writer thread, oldest first.
    frames: VecDeque<String>,
    /// Sealed by [`SocketWatchSink::close`] (terminal answer frame
    /// already enqueued) or by the unwind guard: emits arriving later
    /// are no-ops, so no race straggler can trail the answer frame on
    /// the socket or in the replay channel.
    closed: bool,
    /// The writer thread hit a socket error; pending frames were
    /// discarded and nothing further will be written.
    dead: bool,
    /// Frames dropped because the queue was full (slow watcher).
    dropped: u64,
}

/// The bounded hand-off between emitters and the writer thread.
#[derive(Default)]
struct WatchQueue {
    state: Mutex<WatchQueueState>,
    cond: Condvar,
}

/// The origin connection's [`WatchSink`]. `emit` never touches the
/// socket: it appends to a bounded in-memory queue drained by a
/// dedicated writer thread (and mirrors the frame into the re-attach
/// channel when the request carried an id). A watcher that stops
/// reading therefore loses frames once the queue fills — never the
/// race: per the [`WatchSink`] contract, racer threads (including the
/// shared pool's) must not block on a slow consumer, or one idle
/// client could stall every request's race and change deadline-bound
/// answers. The replay channel still receives every frame, so an
/// attached follower's view stays complete even when the origin's
/// socket lagged.
struct SocketWatchSink {
    q: Arc<WatchQueue>,
    channel: Option<Arc<WatchChannel>>,
    /// The writer thread, joined by [`SocketWatchSink::close`].
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl WatchSink for SocketWatchSink {
    fn emit(&self, frame: &Json) {
        let line = frame.encode();
        // The channel push happens under the queue lock so concurrent
        // emitters land in the same order in the socket queue and in
        // the replay log — an attached follower sees the origin's
        // exact stream. Lock order is queue → channel only; stream_to
        // takes the channel lock alone.
        // panic-safe: queue poisoning means another emitter panicked;
        // dropping this frame too is the right degradation.
        let mut s = self.q.state.lock().expect("watch queue poisoned");
        if s.closed {
            // The terminal answer frame is already in: this emitter is
            // a race straggler winding down after the submitter
            // returned. Dropping the frame everywhere keeps the answer
            // the last line of both the stream and the replay log.
            return;
        }
        if let Some(ch) = &self.channel {
            ch.push(line.clone());
        }
        if s.dead {
            return;
        }
        if s.frames.len() >= WATCH_QUEUE_CAP {
            s.dropped += 1;
            return;
        }
        s.frames.push_back(line);
        drop(s);
        self.q.cond.notify_one();
    }
}

impl SocketWatchSink {
    /// Appends the terminal line (bypassing the overflow cap — the
    /// answer frame is never dropped), seals the queue against further
    /// emits, closes the replay channel and joins the writer thread,
    /// so the socket is quiescent when the connection loop resumes.
    /// Returns the overflow-drop count, plus an error when the
    /// watcher's socket broke mid-stream — the connection may hold a
    /// half-written frame and must be closed, not reused.
    fn close(&self, terminal: String) -> (u64, std::io::Result<()>) {
        self.seal(Some(terminal));
        // panic-safe: as in emit.
        let handle = self.writer.lock().expect("watch writer poisoned").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        // panic-safe: as in emit.
        let s = self.q.state.lock().expect("watch queue poisoned");
        let result = if s.dead {
            Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "watch subscriber hung up mid-stream",
            ))
        } else {
            Ok(())
        };
        (s.dropped, result)
    }

    /// Seals the queue against further emits — after enqueueing
    /// `terminal`, when given, past the overflow cap — and closes the
    /// replay channel. Poison-tolerant: the unwind guard seals too.
    fn seal(&self, terminal: Option<String>) {
        let mut s = self.q.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(line) = terminal {
            if let Some(ch) = &self.channel {
                ch.push(line.clone());
            }
            if !s.dead {
                s.frames.push_back(line);
            }
        }
        s.closed = true;
        drop(s);
        self.q.cond.notify_all();
        if let Some(ch) = &self.channel {
            ch.finish();
        }
    }

    /// The writer thread body: drains queued frames to the
    /// subscriber's socket until the queue is closed and empty. A
    /// write error marks the queue dead and discards what was pending
    /// — the race keeps running, merely unwatched. Blocking here (a
    /// watcher that reads slowly but steadily) pins only this thread,
    /// never a racer.
    fn drain_to(q: &WatchQueue, sock: &mut TcpStream) {
        loop {
            // panic-safe: as in emit.
            let mut s = q.state.lock().expect("watch queue poisoned");
            while s.frames.is_empty() && !s.closed {
                // panic-safe: as in emit.
                s = q.cond.wait(s).expect("watch queue poisoned");
            }
            if s.frames.is_empty() {
                return; // closed and fully drained
            }
            let batch: Vec<String> = s.frames.drain(..).collect();
            drop(s);
            if write_lines(sock, &batch).is_err() {
                // panic-safe: as in emit.
                let mut s = q.state.lock().expect("watch queue poisoned");
                s.dead = true;
                s.frames.clear();
            }
        }
    }
}

/// Builds the origin sink for a watched race — a bounded frame queue
/// with a dedicated writer thread draining it to the subscriber's
/// socket — and, when the request carries an id, registers the
/// re-attach channel under it. An id another watched race already
/// holds is rejected with an error line (`Ok(None)`: the error is
/// already written): attach must be unambiguous, and two races
/// sharing an id could otherwise deregister each other mid-flight.
fn register_watch(
    writer: &mut TcpStream,
    id: Option<&str>,
    shared: &Shared,
) -> std::io::Result<Option<Arc<SocketWatchSink>>> {
    let q = Arc::new(WatchQueue::default());
    let mut sock = writer.try_clone()?;
    let handle = std::thread::Builder::new()
        .name("serve-watch-writer".into())
        .spawn({
            let q = Arc::clone(&q);
            move || SocketWatchSink::drain_to(&q, &mut sock)
        })?;
    let sink = Arc::new(SocketWatchSink {
        q,
        channel: id.map(|_| Arc::default()),
        writer: Mutex::new(Some(handle)),
    });
    if let (Some(rid), Some(ch)) = (id, &sink.channel) {
        // panic-safe: watch-hub poisoning means a watch handler
        // already panicked while registering or attaching; failing
        // this request too is the intended failure mode.
        let mut hub = shared.watches.lock().expect("watch hub poisoned");
        if hub.contains_key(rid) {
            drop(hub);
            // The writer thread drains the empty sealed queue and exits.
            sink.seal(None);
            shared.metrics.errors.inc();
            let message = format!(
                "a watched race with request id {rid:?} is already in flight; \
                 attach to it or pick a fresh id"
            );
            write_lines(writer, &[encode_error(Some(rid), &message)])?;
            return Ok(None);
        }
        hub.insert(rid.to_string(), Arc::clone(ch));
    }
    Ok(Some(sink))
}

/// Drops the re-attach registration for `id` — but only when the hub
/// still maps it to *this* race's channel (`Arc::ptr_eq`), so a finish
/// (or unwind) can never deregister some other in-flight race that
/// re-registered the id after ours left the map.
fn deregister_watch(id: Option<&str>, sink: &SocketWatchSink, shared: &Shared) {
    let (Some(rid), Some(ch)) = (id, &sink.channel) else {
        return;
    };
    // Poison-tolerant: this also runs on the unwind path, where a
    // second panic would abort the process.
    let mut hub = shared
        .watches
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if hub.get(rid).is_some_and(|c| Arc::ptr_eq(c, ch)) {
        hub.remove(rid);
    }
}

/// Unwind insurance for an in-flight watched race: if the handler
/// panics before [`finish_watch`] runs (a panicking inline member
/// unwinds through the watch functions), the drop deregisters the
/// re-attach id, closes the replay channel — otherwise attached
/// followers would wait forever on its condvar, pinning their
/// connection threads, and the hub entry would leak — and seals the
/// frame queue so the writer thread drains out and exits.
/// [`finish_watch`] disarms it on the ordinary path.
struct WatchGuard<'a> {
    id: Option<&'a str>,
    sink: Arc<SocketWatchSink>,
    shared: &'a Shared,
    armed: bool,
}

impl Drop for WatchGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        deregister_watch(self.id, &self.sink, self.shared);
        self.sink.seal(None);
        // The writer thread exits on its own once the sealed queue is
        // drained; no join here — this thread is unwinding.
    }
}

/// Emits the terminal `{"frame":"answer",...}` line, seals the stream
/// (late race stragglers are silenced, so nothing trails the answer)
/// and tears the subscription down: deregisters the re-attach id,
/// closes the replay channel and joins the writer thread. Propagates
/// an error when the watcher hung up mid-stream — the connection may
/// hold a half-written frame, so it must be closed, not reused.
fn finish_watch(mut guard: WatchGuard<'_>, body: Json) -> std::io::Result<()> {
    guard.armed = false;
    let frame = body.with_fields(0, [("frame", "answer".into())]);
    // Deregister BEFORE the terminal frame goes out: a client that
    // has seen the answer must deterministically find the id gone,
    // so removal cannot trail the emit. An attacher that cloned the
    // channel just before removal still streams to the terminal
    // frame — `stream_to` drains until the close below.
    deregister_watch(guard.id, &guard.sink, guard.shared);
    let (dropped, result) = guard.sink.close(frame.encode());
    if dropped > 0 {
        guard.shared.metrics.watch_drops.add(dropped);
    }
    result
}

/// `{"cmd":"watch","request":ID}` — re-attach to an in-flight watched
/// race: replay every frame streamed so far, then follow live until
/// the terminal answer frame. Only races still running are attachable;
/// a finished (or never-watched) id answers with an error line.
pub(super) fn attach_watch(
    writer: &mut TcpStream,
    request: &str,
    shared: &Shared,
) -> std::io::Result<()> {
    // panic-safe: as in register_watch.
    let channel = shared
        .watches
        .lock()
        .expect("watch hub poisoned") // panic-safe: as in register_watch
        .get(request)
        .cloned();
    let Some(channel) = channel else {
        shared.metrics.errors.inc();
        let message = format!("no in-flight watched race with request id {request:?}");
        return write_lines(writer, &[encode_error(None, &message)]);
    };
    channel.stream_to(writer)
}

/// Runs a watched request on the subscriber's own socket: registers
/// the sink (and the re-attach id, if any), runs `body` — the same body
/// the plain request runs, with the sink hooked into its race — and
/// ends the stream with that body as the terminal answer frame. A
/// duplicate in-flight id is answered with one error line instead.
pub(super) fn watched(
    writer: &mut TcpStream,
    id: Option<&str>,
    shared: &Shared,
    body: impl FnOnce(Arc<dyn WatchSink>) -> Json,
) -> std::io::Result<()> {
    let Some(sink) = register_watch(writer, id, shared)? else {
        return Ok(());
    };
    let guard = WatchGuard {
        id,
        sink: Arc::clone(&sink),
        shared,
        armed: true,
    };
    finish_watch(guard, body(sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;
    use crate::server::{ServeConfig, Service};
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// Builds a [`SocketWatchSink`] (queue, writer thread, optional
    /// replay channel) over one end of a fresh localhost socket pair.
    /// Returns the sink, the server-side stream it writes to and the
    /// client-side stream a test can read (or stall) at will.
    fn test_sink(with_channel: bool) -> (SocketWatchSink, TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let q = Arc::new(WatchQueue::default());
        let handle = {
            let q = Arc::clone(&q);
            let mut sock = server_side.try_clone().unwrap();
            std::thread::spawn(move || SocketWatchSink::drain_to(&q, &mut sock))
        };
        let sink = SocketWatchSink {
            q,
            channel: with_channel.then(Arc::default),
            writer: Mutex::new(Some(handle)),
        };
        (sink, server_side, client)
    }

    /// Reads every line from `client` until EOF.
    fn read_all_lines(client: TcpStream) -> std::thread::JoinHandle<Vec<String>> {
        std::thread::spawn(move || {
            let mut lines = Vec::new();
            let mut reader = BufReader::new(client);
            loop {
                let mut l = String::new();
                if reader.read_line(&mut l).unwrap_or(0) == 0 {
                    return lines;
                }
                lines.push(l.trim().to_string());
            }
        })
    }

    /// A watcher that stops reading must cost the race nothing: once
    /// the kernel buffers and the bounded queue are full, emits drop
    /// the frame (counted) and return instead of blocking the racer
    /// thread on the socket. The answer frame still arrives, last.
    #[test]
    fn watch_sink_drops_frames_for_a_stalled_subscriber_without_blocking() {
        let (sink, server_side, client) = test_sink(false);
        // ~32 MB of frames at a client that reads nothing — far beyond
        // any kernel send+receive buffer plus the 4096-frame queue, so
        // the pre-fix blocking sink would wedge this loop forever.
        let pad: String = "x".repeat(1024);
        let frame = obj([("frame", "sample".into()), ("pad", pad.into())]);
        for _ in 0..32_000 {
            sink.emit(&frame);
        }
        assert!(
            sink.q.state.lock().unwrap().dropped > 0,
            "overflow beyond the queue cap is dropped, not buffered"
        );
        // Now drain the client so close() can flush the pending tail.
        let reader = read_all_lines(client);
        let (dropped, io) = sink.close(r#"{"frame":"answer"}"#.to_string());
        assert!(dropped > 0);
        io.unwrap();
        drop(sink);
        drop(server_side);
        let lines = reader.join().unwrap();
        assert!(lines.len() < 32_001, "some frames were shed");
        assert_eq!(
            lines.last().map(String::as_str),
            Some(r#"{"frame":"answer"}"#)
        );
    }

    /// Emits after the sink is sealed — the straggler case: a pooled
    /// member popped just before cancellation can finish after
    /// `race_core_hooked` returned at the deadline — are dropped everywhere,
    /// so the answer frame stays the last line on the socket (framing
    /// of later requests on the connection survives) and in the
    /// replay channel (attach replays match the origin stream).
    #[test]
    fn watch_sink_silences_straggler_emits_after_close() {
        let (sink, server_side, client) = test_sink(true);
        sink.emit(&obj([("frame", "sample".into())]));
        let reader = read_all_lines(client);
        let (dropped, io) = sink.close(r#"{"frame":"answer"}"#.to_string());
        assert_eq!(dropped, 0);
        io.unwrap();
        sink.emit(&obj([("frame", "finish".into())]));
        let log = sink.channel.as_ref().unwrap().state.lock().unwrap();
        assert!(log.done, "replay channel closed with the answer");
        let kinds: Vec<&str> = log
            .frames
            .iter()
            .map(|l| {
                if l.contains("answer") {
                    "answer"
                } else {
                    "other"
                }
            })
            .collect();
        assert_eq!(kinds, ["other", "answer"], "nothing trails the answer");
        drop(log);
        drop(sink);
        drop(server_side);
        let lines = reader.join().unwrap();
        assert_eq!(lines.len(), 2, "{lines:?}");
        assert_eq!(lines[1], r#"{"frame":"answer"}"#);
    }

    /// A watch handler that unwinds before `finish_watch` (a panicking
    /// inline member is an expected failure mode) must not leak its
    /// hub registration or strand attached followers on the channel
    /// condvar. Dropping an armed [`WatchGuard`] is exactly what the
    /// unwind does.
    #[test]
    fn watch_guard_unregisters_and_releases_followers_on_unwind() {
        let service = Service::bind(ServeConfig {
            workers: 2,
            gen_cap: 60,
            ..ServeConfig::default()
        })
        .unwrap();
        let shared = &service.shared;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        let sink = register_watch(&mut server_side, Some("leak-1"), shared)
            .unwrap()
            .expect("fresh id registers");
        assert!(shared.watches.lock().unwrap().contains_key("leak-1"));
        let channel = Arc::clone(sink.channel.as_ref().unwrap());
        let guard = WatchGuard {
            id: Some("leak-1"),
            sink: Arc::clone(&sink),
            shared,
            armed: true,
        };
        drop(guard);
        assert!(
            !shared.watches.lock().unwrap().contains_key("leak-1"),
            "unwind removes the hub entry"
        );
        assert!(
            channel.state.lock().unwrap().done,
            "unwind closes the channel"
        );
        // A follower's stream_to terminates instead of waiting forever.
        channel.stream_to(&mut server_side).unwrap();
        service.shutdown();
    }
}
