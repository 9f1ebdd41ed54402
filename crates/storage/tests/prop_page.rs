//! Property tests for the slotted-page layout: random op sequences
//! against a model, with compaction correctness and space accounting.

use std::collections::HashMap;

use proptest::prelude::*;

use labflow_storage::page_testing as page;

#[derive(Debug, Clone)]
enum Op {
    Insert { size: usize, fill: u8 },
    Update { pick: usize, size: usize, fill: u8 },
    Remove { pick: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..900, any::<u8>()).prop_map(|(size, fill)| Op::Insert { size, fill }),
        2 => (any::<usize>(), 0usize..900, any::<u8>())
            .prop_map(|(pick, size, fill)| Op::Update { pick, size, fill }),
        2 => any::<usize>().prop_map(|pick| Op::Remove { pick }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Whatever sequence of inserts/updates/removes runs, every live
    /// record reads back exactly, and rejected operations change nothing.
    #[test]
    fn page_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut buf = vec![0u8; labflow_storage::PAGE_SIZE];
        page::init(&mut buf);
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        let mut live: Vec<u16> = Vec::new();

        for op in &ops {
            match op {
                Op::Insert { size, fill } => {
                    let data = vec![*fill; *size];
                    if let Some(slot) = page::insert(&mut buf, &data) {
                        model.insert(slot.0, data);
                        if !live.contains(&slot.0) {
                            live.push(slot.0);
                        }
                    }
                }
                Op::Update { pick, size, fill } => {
                    if live.is_empty() {
                        continue;
                    }
                    let slot = live[pick % live.len()];
                    let data = vec![*fill; *size];
                    if page::update(&mut buf, page::slot(slot), &data) {
                        model.insert(slot, data);
                    }
                    // On failure the old value must be intact — checked in
                    // the sweep below.
                }
                Op::Remove { pick } => {
                    if live.is_empty() {
                        continue;
                    }
                    let idx = pick % live.len();
                    let slot = live.swap_remove(idx);
                    prop_assert!(page::remove(&mut buf, page::slot(slot)));
                    model.remove(&slot);
                }
            }
            // Full sweep after every op: all live records intact.
            for (&slot, data) in &model {
                let got = page::read(&buf, page::slot(slot));
                prop_assert_eq!(got, Some(&data[..]), "slot {} corrupted", slot);
            }
            // Space accounting: live bytes equals the model's total.
            let want: usize = model.values().map(|v| v.len()).sum();
            prop_assert_eq!(page::live_bytes(&buf), want);
        }

        // Compaction preserves everything and eliminates dead bytes.
        page::compact(&mut buf);
        prop_assert_eq!(page::dead_bytes(&buf), 0);
        for (&slot, data) in &model {
            prop_assert_eq!(page::read(&buf, page::slot(slot)), Some(&data[..]));
        }
    }

    /// The heap picks a page with `fits` and then calls `insert` on it;
    /// a "yes" that `insert` refuses is a corrupt-store error, and a "no"
    /// that `insert` would have taken is a page abandoned with room on
    /// it. After any op sequence the two agree for every size — around
    /// the page's exact room in particular, where the slot entry an
    /// insert may or may not need decides.
    #[test]
    fn fits_agrees_with_insert(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        probes in proptest::collection::vec(0usize..4200, 8..9),
    ) {
        let mut buf = vec![0u8; labflow_storage::PAGE_PAYLOAD];
        page::init(&mut buf);
        let mut live: Vec<u16> = Vec::new();
        for op in &ops {
            match op {
                Op::Insert { size, fill } => {
                    if let Some(slot) = page::insert(&mut buf, &vec![*fill; *size]) {
                        live.push(slot.0);
                    }
                }
                Op::Update { pick, size, fill } => {
                    if let Some(&slot) = live.get(pick % live.len().max(1)) {
                        page::update(&mut buf, page::slot(slot), &vec![*fill; *size]);
                    }
                }
                Op::Remove { pick } => {
                    if !live.is_empty() {
                        let slot = live.swap_remove(pick % live.len());
                        prop_assert!(page::remove(&mut buf, page::slot(slot)));
                    }
                }
            }
            let room = page::reclaimable(&buf);
            let edge = room.saturating_sub(6)..room + 3;
            for n in probes.iter().copied().chain(edge) {
                let mut trial = buf.clone();
                let took = page::insert(&mut trial, &vec![0u8; n]).is_some();
                prop_assert_eq!(page::fits(&buf, n), took, "{} bytes into {} reclaimable", n, room);
            }
        }
    }

    /// Recovery may place onto a page that is not slotted at all (the
    /// checkpoint's meta can outlive a page's format), so the two agree
    /// on any bytes, not only on what the ops above can produce.
    #[test]
    fn fits_agrees_with_insert_on_any_bytes(
        slot_count in 0u16..1100,
        free_end in 0u16..4200,
        fill in prop_oneof![Just(0xFFu8), Just(0u8), any::<u8>()],
        n in 0usize..4200,
    ) {
        // 0xFF reads as freed slots, 0 as empty live ones.
        let mut buf = vec![fill; labflow_storage::PAGE_PAYLOAD];
        buf[0..2].copy_from_slice(&slot_count.to_le_bytes());
        buf[2..4].copy_from_slice(&free_end.to_le_bytes());
        let mut trial = buf.clone();
        let took = page::insert(&mut trial, &vec![0u8; n]).is_some();
        prop_assert_eq!(page::fits(&buf, n), took);
    }

    /// A page never accepts more payload than physically fits, and after
    /// filling up, removing everything restores (almost) full capacity.
    #[test]
    fn fill_drain_refill(size in 1usize..400) {
        let mut buf = vec![0u8; labflow_storage::PAGE_SIZE];
        page::init(&mut buf);
        let mut slots = Vec::new();
        while let Some(s) = page::insert(&mut buf, &vec![7u8; size]) {
            slots.push(s);
            prop_assert!(slots.len() < 5000, "page accepted unbounded records");
        }
        let first_fill = slots.len();
        prop_assert!(first_fill * size <= labflow_storage::PAGE_SIZE);
        for s in slots.drain(..) {
            prop_assert!(page::remove(&mut buf, s));
        }
        prop_assert_eq!(page::live_bytes(&buf), 0);
        // Refill: slot directory is already paid for, so capacity is
        // at least as good as the first fill.
        let mut refill = 0usize;
        while page::insert(&mut buf, &vec![8u8; size]).is_some() {
            refill += 1;
        }
        prop_assert!(refill >= first_fill, "refill {refill} < first fill {first_fill}");
    }
}
