//! The one bounded record store behind both the trace sink and the
//! progress-event bus: 16 thread-sharded overwrite-oldest rings with drop
//! and wrap accounting, plus an optional stream writer that receives every
//! record as it is pushed. The stream is lossless past the ring capacity,
//! and its first write error tears it down (counted in
//! [`ShardedRing::stream_errors`]) while pushing continues ring-only:
//! observability must never take down the observed run.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of ring shards. Threads map to shards by their process-wide id,
/// so up to this many threads push without sharing a lock.
pub(crate) const SHARDS: usize = 16;

/// Process-wide thread-id assignment: each OS thread gets a stable small
/// id the first time it asks, so spans and events from the same thread
/// carry the same id.
pub(crate) fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }
    TID.with(|cell| {
        if cell.get() == 0 {
            cell.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        cell.get()
    })
}

/// Fixed-capacity overwrite-oldest buffer.
struct Ring<T> {
    records: Vec<T>,
    /// Index of the oldest record once the buffer has wrapped.
    head: usize,
    wrapped: bool,
}

/// Thread-sharded overwrite-oldest rings with an attachable stream. See
/// the module docs.
pub(crate) struct ShardedRing<T> {
    /// Ring capacity per shard.
    capacity: usize,
    shards: [Mutex<Ring<T>>; SHARDS],
    dropped: AtomicU64,
    /// Mirrors `stream.is_some()`, so a push without a stream costs one
    /// relaxed load.
    stream_active: AtomicBool,
    stream: Mutex<Option<Box<dyn Write + Send>>>,
    streamed: AtomicU64,
    stream_errors: AtomicU64,
}

impl<T> std::fmt::Debug for ShardedRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedRing")
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl<T: Clone> ShardedRing<T> {
    /// Rings retaining up to `capacity` records *per shard* (total:
    /// `16 × capacity`). A zero capacity is rounded up to 1.
    pub(crate) fn with_capacity(capacity: usize) -> ShardedRing<T> {
        ShardedRing {
            capacity: capacity.max(1),
            shards: [(); SHARDS].map(|()| {
                Mutex::new(Ring {
                    records: Vec::new(),
                    head: 0,
                    wrapped: false,
                })
            }),
            dropped: AtomicU64::new(0),
            stream_active: AtomicBool::new(false),
            stream: Mutex::new(None),
            streamed: AtomicU64::new(0),
            stream_errors: AtomicU64::new(0),
        }
    }

    /// Streams `record` when a stream is attached (`encode` renders it,
    /// outside the stream lock, and runs only then), then retains it in
    /// `thread`'s shard, overwriting that shard's oldest record when full.
    pub(crate) fn push(&self, thread: u64, record: T, encode: impl FnOnce(&T) -> String) {
        if self.stream_active.load(Ordering::Relaxed) {
            let bytes = encode(&record);
            let mut stream = self.stream.lock().expect("ring stream poisoned");
            if let Some(writer) = stream.as_mut() {
                if writer.write_all(bytes.as_bytes()).is_ok() {
                    self.streamed.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.stream_errors.fetch_add(1, Ordering::Relaxed);
                    self.stream_active.store(false, Ordering::Relaxed);
                    *stream = None;
                }
            }
        }
        let mut ring = self.shards[(thread as usize) % SHARDS]
            .lock()
            .expect("ring shard poisoned");
        if ring.records.len() < self.capacity {
            ring.records.push(record);
        } else {
            let head = ring.head;
            ring.records[head] = record;
            ring.head = (head + 1) % self.capacity;
            ring.wrapped = true;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Attaches a live writer: every record pushed from now on is also
    /// written to it. Replaces any previous stream without closing it.
    pub(crate) fn stream_to(&self, writer: Box<dyn Write + Send>) {
        *self.stream.lock().expect("ring stream poisoned") = Some(writer);
        self.stream_active.store(true, Ordering::Relaxed);
    }

    /// Detaches the stream, writes `trailer(self)` to it, and flushes. A
    /// no-op returning `Ok` when no stream is attached (including after a
    /// write error already tore the stream down).
    pub(crate) fn finish_stream(
        &self,
        trailer: impl FnOnce(&Self) -> String,
    ) -> std::io::Result<()> {
        self.stream_active.store(false, Ordering::Relaxed);
        let Some(mut writer) = self.stream.lock().expect("ring stream poisoned").take() else {
            return Ok(());
        };
        writer.write_all(trailer(self).as_bytes())?;
        writer.flush()
    }

    /// Number of records successfully written to the stream.
    pub(crate) fn streamed(&self) -> u64 {
        self.streamed.load(Ordering::Relaxed)
    }

    /// Number of stream write failures: 0 or 1 per attached stream.
    pub(crate) fn stream_errors(&self) -> u64 {
        self.stream_errors.load(Ordering::Relaxed)
    }

    /// Number of records lost to ring wrap-around.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Number of shard rings that have wrapped at least once.
    pub(crate) fn wrapped_shards(&self) -> u64 {
        self.shards
            .iter()
            .filter(|s| s.lock().expect("ring shard poisoned").wrapped)
            .count() as u64
    }

    /// Number of records currently retained.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("ring shard poisoned").records.len())
            .sum()
    }

    /// All retained records, sorted by `key`; within a shard and among
    /// equal keys, in arrival order.
    pub(crate) fn snapshot<K: Ord>(&self, key: impl FnMut(&T) -> K) -> Vec<T> {
        let mut records = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let ring = shard.lock().expect("ring shard poisoned");
            records.extend_from_slice(&ring.records[ring.head..]);
            records.extend_from_slice(&ring.records[..ring.head]);
        }
        records.sort_by_key(key);
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn line(v: &u32) -> String {
        format!("{v}\n")
    }

    /// A `Write` handle whose buffer outlives the ring that owns the
    /// boxed writer; fails every write once `ok_writes` have landed.
    #[derive(Clone)]
    struct Buf {
        bytes: Arc<Mutex<Vec<u8>>>,
        ok_writes: Arc<AtomicU64>,
    }

    impl Buf {
        fn new(ok_writes: u64) -> Buf {
            Buf {
                bytes: Arc::default(),
                ok_writes: Arc::new(AtomicU64::new(ok_writes)),
            }
        }

        fn text(&self) -> String {
            String::from_utf8(self.bytes.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.ok_writes.load(Ordering::Relaxed) == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            self.ok_writes.fetch_sub(1, Ordering::Relaxed);
            self.bytes.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn wrap_drops_oldest_and_counts_per_shard() {
        let ring = ShardedRing::with_capacity(4);
        for v in 0..4u32 {
            ring.push(3, v, line);
        }
        assert_eq!(
            (ring.dropped(), ring.wrapped_shards()),
            (0, 0),
            "full, not wrapped"
        );
        for v in 4..7u32 {
            ring.push(3, v, line);
        }
        ring.push(5, 100, line);
        assert_eq!(ring.len(), 5, "one shard capped at 4, another holds 1");
        assert_eq!(ring.dropped(), 3, "three overwrites counted");
        assert_eq!(ring.wrapped_shards(), 1, "only the overfull shard wrapped");
    }

    #[test]
    fn snapshot_keeps_arrival_order_after_a_wrap() {
        let ring = ShardedRing::with_capacity(4);
        for v in 0..11u32 {
            ring.push(1, v, line);
        }
        assert_eq!(ring.snapshot(|_| 0), vec![7, 8, 9, 10], "oldest dropped first");
        assert_eq!(ShardedRing::<u32>::with_capacity(0).capacity, 1);
    }

    #[test]
    fn concurrent_pushes_below_capacity_are_lossless() {
        let ring = ShardedRing::with_capacity(10_000);
        std::thread::scope(|scope| {
            for t in 0..8u32 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..500 {
                        ring.push(thread_id(), t * 1_000 + i, line);
                    }
                });
            }
        });
        assert_eq!(ring.dropped(), 0);
        let all = ring.snapshot(|&v| v);
        let expected: Vec<u32> = (0..8)
            .flat_map(|t| (0..500).map(move |i| t * 1_000 + i))
            .collect();
        assert_eq!(all, expected, "every record retained exactly once");
    }

    #[test]
    fn first_stream_error_tears_down_the_stream_but_keeps_the_ring() {
        let ring = ShardedRing::with_capacity(8);
        let buf = Buf::new(2);
        ring.stream_to(Box::new(buf.clone()));
        for v in 0..5u32 {
            ring.push(1, v, line);
        }
        assert_eq!(ring.streamed(), 2, "two records landed before the fault");
        assert_eq!(ring.stream_errors(), 1, "first failure counted once");
        assert_eq!(ring.len(), 5, "ring retention unaffected by the fault");
        assert_eq!(buf.text(), "0\n1\n");
        let mut trailer_ran = false;
        ring.finish_stream(|_| {
            trailer_ran = true;
            String::new()
        })
        .expect("finish after teardown is a no-op");
        assert!(!trailer_ran, "no trailer for a torn-down stream");
    }

    #[test]
    fn finish_stream_writes_trailer_once_and_without_stream_is_a_no_op() {
        let ring = ShardedRing::<u32>::with_capacity(2);
        ring.finish_stream(|_| unreachable!("no stream attached"))
            .expect("no-op");
        assert_eq!((ring.streamed(), ring.stream_errors()), (0, 0));
        let buf = Buf::new(u64::MAX);
        ring.stream_to(Box::new(buf.clone()));
        for v in 0..3u32 {
            ring.push(1, v, line);
        }
        ring.finish_stream(|r| format!("end {} {}\n", r.streamed(), r.dropped()))
            .expect("finish");
        assert_eq!(buf.text(), "0\n1\n2\nend 3 1\n", "lossless past the ring");
        ring.push(1, 9, |_| unreachable!("stream detached: nothing encoded"));
        ring.finish_stream(|_| unreachable!("already finished"))
            .expect("second finish is a no-op");
    }
}
