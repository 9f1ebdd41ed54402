//! WAL streaming vs. tail-tear rescue: a `stream_from` reader racing
//! `truncate`'s `repair_head`/`pending_reset` machinery must observe
//! either the old tail or the fully repaired head — never the limbo in
//! between, and never a torn frame.
//!
//! The writer thread appends and group-commits continuously while
//! periodically truncating the log, with seeded transient I/O faults
//! injected so some truncations fail partway (leaving `pending_reset`
//! armed for the next lock holder to repair). The reader thread streams
//! chunks concurrently and re-verifies every shipped frame with the
//! position-bound checksums: any torn or half-repaired state it could
//! observe would surface as a `Recovery` error, which fails the test.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use labflow_storage::wal_testing::{Wal, WalRecord};
use labflow_storage::{decode_shipped, FaultPlan, SimVfs, StorageError, StorageStats, Vfs};

#[test]
fn stream_reader_never_sees_a_torn_or_half_repaired_head() {
    for seed in [3u64, 17, 92] {
        let sim = SimVfs::new(seed);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let path = PathBuf::from("/sim/stream-race.log");
        let stats = Arc::new(StorageStats::default());
        let wal = Arc::new(Wal::create(&vfs, &path, stats).unwrap());
        let done = Arc::new(AtomicBool::new(false));
        // Set once the reader has polled: the writer starts only then, so
        // on a small machine it cannot finish before the reader runs.
        let polled = Arc::new(AtomicBool::new(false));

        let reader = {
            let (wal, done, polled) = (Arc::clone(&wal), Arc::clone(&done), Arc::clone(&polled));
            std::thread::spawn(move || {
                let mut from = 0u64;
                let mut decoded = 0u64;
                loop {
                    // Read `done` before polling: a poll that starts
                    // after the writer finished drains the final log.
                    let last = done.load(Ordering::Acquire);
                    match wal.stream_from(from, 1 << 16) {
                        Ok(chunk) => {
                            // The shipped bytes must verify as whole
                            // frames at their absolute offsets; a torn
                            // or half-repaired read cannot.
                            let recs = decode_shipped(chunk.start, &chunk.bytes)
                                .expect("stream served a torn or corrupt chunk");
                            decoded += recs.len() as u64;
                            from = chunk.end;
                            if last {
                                return decoded;
                            }
                        }
                        // The log restarted under us (a truncation won
                        // the race): resume from the new head.
                        Err(StorageError::WalRewound { .. }) => from = 0,
                        // Injected transient faults can exhaust the
                        // retry budget; that is an I/O failure, not a
                        // coherence violation. Try again.
                        Err(StorageError::Io(_)) => {}
                        Err(e) => panic!("stream reader saw unexpected error: {e}"),
                    }
                    polled.store(true, Ordering::Release);
                }
            })
        };
        while !polled.load(Ordering::Acquire) {
            std::thread::yield_now();
        }

        let mut epoch = 1u64;
        for i in 0..200u64 {
            wal.append(&WalRecord::Begin(i)).unwrap();
            wal.append(&WalRecord::Commit(i)).unwrap();
            // Injected faults may fail the force; the records stay
            // buffered and ride along with a later flush.
            let _ = wal.group_commit(true);
            if i % 25 == 24 {
                // Arm a transient fault so some truncations die partway
                // (set_len / reset-frame write / sync), leaving
                // `pending_reset` for the next lock holder — often the
                // concurrent stream reader — to repair.
                let base = sim.op_count() + (i % 3);
                sim.set_plan(FaultPlan { fail_ops: vec![base, base + 1], ..FaultPlan::default() });
                epoch += 1;
                let _ = wal.truncate(epoch);
                sim.set_plan(FaultPlan::default());
            }
        }
        wal.group_commit(true).unwrap();
        done.store(true, Ordering::Release);
        let decoded = reader.join().expect("reader thread panicked");

        // The log left behind must replay cleanly (the repair always
        // completed), and the reader made real progress.
        let replayed = Wal::replay(&vfs, &path).expect("final log must be intact");
        assert!(replayed.frames > 0, "seed {seed}: log ended empty");
        assert!(decoded > 0, "seed {seed}: reader never decoded a frame");
    }
}
