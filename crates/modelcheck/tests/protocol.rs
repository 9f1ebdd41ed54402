//! The checker's seeded-bug self-test: a miniature epoch-reclamation
//! protocol (publish-and-recheck pin, swap-then-stamp retire,
//! epoch-bump-then-scan reclaim), plus three deliberately injectable
//! bugs. It models no code in this workspace; it is a protocol whose
//! bugs are subtle enough to prove the explorer works. The correct
//! protocol must survive exhaustive exploration; each seeded bug must
//! produce a *reported* use-after-reclaim interleaving. This is the
//! evidence that the explorer can actually find the class of bug a
//! protocol model asserts the absence of.

use std::sync::Arc;

use labflow_modelcheck::atomic::{AtomicPtr, AtomicU64, Ordering};
use labflow_modelcheck::{heap, sync, thread, Builder};

const IDLE: u64 = u64::MAX;

#[derive(Clone, Copy, PartialEq)]
enum Bug {
    /// The protocol as designed.
    None,
    /// Retire stamps the value with the epoch read *before* the swap, so
    /// a reclaim racing the publish can make the stamp stale-low.
    StampBeforeSwap,
    /// Reclaim frees entries with `stamp <= min_active` instead of
    /// `stamp < min_active`.
    InclusiveReclaim,
    /// Reclaim scans the reader slot with `Relaxed`, so it can observe a
    /// stale `IDLE` from before the reader pinned.
    RelaxedScan,
}

struct Proto {
    ptr: AtomicPtr<u64>,
    epoch: AtomicU64,
    /// The (single) reader's pinned epoch; `IDLE` when inactive.
    slot: AtomicU64,
    /// Retired values awaiting reclamation: (address, epoch stamp).
    retired: sync::Mutex<Vec<(usize, u64)>>,
}

fn setup(initial: u64) -> Arc<Proto> {
    let p0 = Box::into_raw(Box::new(initial));
    heap::on_alloc(p0 as usize);
    Arc::new(Proto {
        ptr: AtomicPtr::new(p0),
        epoch: AtomicU64::new(0),
        slot: AtomicU64::new(IDLE),
        retired: sync::Mutex::new(Vec::new()),
    })
}

fn free(addr: usize) {
    if heap::on_free(addr) {
        // SAFETY: addr came from Box::into_raw and the model just
        // confirmed it is live and unreferenced.
        drop(unsafe { Box::from_raw(addr as *mut u64) });
    }
}

/// Pin (publish-and-recheck), read the current value, unpin.
fn read(p: &Proto) -> u64 {
    let mut e = p.epoch.load(Ordering::SeqCst);
    loop {
        p.slot.store(e, Ordering::SeqCst);
        let e2 = p.epoch.load(Ordering::SeqCst);
        if e2 == e {
            break;
        }
        e = e2;
    }
    let v = p.ptr.load(Ordering::SeqCst);
    heap::retain(v as usize);
    // SAFETY: the pin protocol (under test!) keeps v alive; the model
    // reports a violation instead of letting a buggy interleaving free
    // it for real.
    let out = unsafe { *v };
    // The guard is held across further shared-memory work, as real
    // readers hold ReadGuards across arbitrary code — this scheduling
    // point is what lets a racing reclaim run while we hold the value.
    let _ = p.epoch.load(Ordering::SeqCst);
    heap::release(v as usize);
    p.slot.store(IDLE, Ordering::SeqCst);
    out
}

/// Swap in a new value and retire the old one.
fn publish(p: &Proto, val: u64, bug: Bug) {
    let b = Box::into_raw(Box::new(val));
    heap::on_alloc(b as usize);
    let (old, stamp);
    if bug == Bug::StampBeforeSwap {
        stamp = p.epoch.load(Ordering::SeqCst);
        old = p.ptr.swap(b, Ordering::SeqCst);
    } else {
        old = p.ptr.swap(b, Ordering::SeqCst);
        stamp = p.epoch.load(Ordering::SeqCst);
    }
    p.retired.lock().push((old as usize, stamp));
}

/// Bump the epoch, scan the reader slot, free safely-old retirees. The
/// retired lock is held across the scan AND the frees: scanning before taking the lock is itself
/// a reclamation race (a value retired after the scan could be freed
/// against a reader the stale scan never saw) — and the explorer finds
/// it if this function is reordered.
fn reclaim(p: &Proto, bug: Bug) {
    let mut retired = p.retired.lock();
    p.epoch.fetch_add(1, Ordering::SeqCst);
    let scan = if bug == Bug::RelaxedScan { Ordering::Relaxed } else { Ordering::SeqCst };
    let pinned = p.slot.load(scan);
    let min_active = if pinned == IDLE { u64::MAX } else { pinned };
    retired.retain(|&(addr, stamp)| {
        let freeable =
            if bug == Bug::InclusiveReclaim { stamp <= min_active } else { stamp < min_active };
        if freeable {
            free(addr);
        }
        !freeable
    });
}

/// Free whatever survived the run so a clean execution has no leaks.
fn teardown(p: &Proto) {
    for (addr, _) in p.retired.lock().drain(..) {
        free(addr);
    }
    free(p.ptr.load(Ordering::SeqCst) as usize);
}

/// One writer publishing + reclaiming, racing one reader. Enough to
/// expose the inclusive-reclaim and relaxed-scan bugs.
fn writer_vs_reader(bug: Bug, preemptions: u32) -> labflow_modelcheck::Report {
    Builder::new().preemptions(preemptions).check(move || {
        let p = setup(1);
        let p2 = p.clone();
        let w = thread::spawn(move || {
            publish(&p2, 2, bug);
            reclaim(&p2, bug);
        });
        let got = read(&p);
        assert!(got == 1 || got == 2, "read tore: {got}");
        w.join();
        teardown(&p);
    })
}

/// A publisher and a dedicated reclaimer racing one reader: the epoch
/// can move between the publisher's stamp and its swap, which is what
/// the stamp-before-swap bug needs.
fn split_writer_vs_reader(bug: Bug, preemptions: u32) -> labflow_modelcheck::Report {
    Builder::new().preemptions(preemptions).check(move || {
        let p = setup(1);
        let (pr, pc) = (p.clone(), p.clone());
        let r = thread::spawn(move || read(&pr));
        let c = thread::spawn(move || {
            reclaim(&pc, bug);
            reclaim(&pc, bug);
        });
        publish(&p, 2, bug);
        let got = r.join();
        assert!(got == 1 || got == 2, "read tore: {got}");
        c.join();
        teardown(&p);
    })
}

#[test]
fn correct_protocol_survives_writer_vs_reader() {
    let report = writer_vs_reader(Bug::None, 3).assert_ok();
    assert!(report.complete);
    println!("correct protocol (writer vs reader): {} interleavings, clean", report.executions);
}

#[test]
fn correct_protocol_survives_split_writer() {
    let report = split_writer_vs_reader(Bug::None, 3).assert_ok();
    assert!(report.complete);
    println!("correct protocol (split writer): {} interleavings, clean", report.executions);
}

#[test]
fn stamp_before_swap_is_caught() {
    let report = split_writer_vs_reader(Bug::StampBeforeSwap, 3);
    let v = report.violation.expect("seeded stamp-before-swap bug was not found");
    assert_eq!(v.kind, "use-after-reclaim", "wrong violation class:\n{v}");
    assert!(!v.trace.is_empty());
    println!("stamp-before-swap caught after {} interleavings:\n{v}", report.executions);
}

#[test]
fn inclusive_reclaim_is_caught() {
    let report = writer_vs_reader(Bug::InclusiveReclaim, 2);
    let v = report.violation.expect("seeded off-by-one reclaim bug was not found");
    assert_eq!(v.kind, "use-after-reclaim", "wrong violation class:\n{v}");
    println!("inclusive-reclaim caught after {} interleavings:\n{v}", report.executions);
}

#[test]
fn relaxed_scan_is_caught() {
    let report = writer_vs_reader(Bug::RelaxedScan, 2);
    let v = report.violation.expect("seeded relaxed-scan bug was not found");
    assert_eq!(v.kind, "use-after-reclaim", "wrong violation class:\n{v}");
    assert!(
        v.trace.iter().any(|l| l.contains("stale")),
        "the violating interleaving should involve a stale Relaxed read:\n{v}"
    );
    println!("relaxed-scan caught after {} interleavings:\n{v}", report.executions);
}
