//! Slotted-page layout shared by the page-based backends.
//!
//! A page payload is a byte array (in practice [`crate::PAGE_PAYLOAD`]
//! bytes — the physical page minus the page file's verification
//! header):
//!
//! ```text
//! +-----------+----------------------+ .... +------------------+
//! | header 4B | slot dir (4B/slot) ->| free |<- records (down) |
//! +-----------+----------------------+ .... +------------------+
//! header: slot_count u16 | free_end u16
//! slot:   offset u16 (0xFFFF = free) | len u16
//! ```
//!
//! Records grow downward from the end of the buffer; the slot directory
//! grows upward after the header. Deleting a record frees its slot
//! index for the next [`insert`] *on this page*; the record bytes are
//! reclaimed lazily, when an insert that would otherwise not fit
//! [`compact`]s the page. Whether a page is ever offered another insert
//! is the heap's decision ("Space management" in DESIGN.md), and
//! [`fits`] is the one predicate both layers use to make it. All
//! decoding is bounds-checked: a malformed directory yields `None`s and
//! no-ops, never a panic — corrupt payloads are caught upstream by the
//! page file's checksums, and this layer must stay total even on bytes
//! that slipped past it.

use crate::ids::Slot;

const HEADER: usize = 4;
/// Bytes one slot-directory entry takes.
pub const SLOT_BYTES: usize = 4;
const FREE_SLOT: u16 = 0xFFFF;

/// Largest record payload a single page can hold.
pub const MAX_RECORD: usize = crate::PAGE_PAYLOAD - HEADER - SLOT_BYTES;

#[inline]
fn get_u16(buf: &[u8], at: usize) -> u16 {
    match buf.get(at..at.saturating_add(2)) {
        Some(&[a, b]) => u16::from_le_bytes([a, b]),
        _ => 0,
    }
}

#[inline]
fn put_u16(buf: &mut [u8], at: usize, v: u16) {
    if let Some(dst) = buf.get_mut(at..at.saturating_add(2)) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

#[inline]
fn copy_into(buf: &mut [u8], at: usize, data: &[u8]) {
    if let Some(dst) = buf.get_mut(at..at.saturating_add(data.len())) {
        dst.copy_from_slice(data);
    }
}

/// Initialize an empty page in `buf`.
pub fn init(buf: &mut [u8]) {
    debug_assert!(buf.len() >= HEADER && buf.len() <= u16::MAX as usize);
    put_u16(buf, 0, 0); // slot_count
    put_u16(buf, 2, buf.len() as u16); // free_end
}

/// Number of slots in the directory (including freed ones).
pub fn slot_count(buf: &[u8]) -> u16 {
    get_u16(buf, 0)
}

fn free_end(buf: &[u8]) -> usize {
    get_u16(buf, 2) as usize
}

fn slot_entry(buf: &[u8], slot: u16) -> (u16, u16) {
    let at = HEADER + slot as usize * SLOT_BYTES;
    (get_u16(buf, at), get_u16(buf, at + 2))
}

fn set_slot_entry(buf: &mut [u8], slot: u16, offset: u16, len: u16) {
    let at = HEADER + slot as usize * SLOT_BYTES;
    put_u16(buf, at, offset);
    put_u16(buf, at + 2, len);
}

/// Bytes taken by the page header and the slot directory (live and
/// freed entries alike). With [`live_bytes`], [`dead_bytes`] and
/// [`gap`] this accounts for every byte of the payload.
pub fn dir_bytes(buf: &[u8]) -> usize {
    HEADER + slot_count(buf) as usize * SLOT_BYTES
}

/// Unused bytes between the slot directory and the records.
pub fn gap(buf: &[u8]) -> usize {
    free_end(buf).saturating_sub(dir_bytes(buf))
}

/// The gap [`compact`] would leave: everything but the directory and
/// the live records, which on a well-formed page is the gap plus the
/// dead bytes. A new slot entry, if one is needed, comes out of this
/// too.
pub fn reclaimable(buf: &[u8]) -> usize {
    buf.len().saturating_sub(dir_bytes(buf) + live_bytes(buf))
}

/// The live records on the page, in slot order.
pub fn records(buf: &[u8]) -> impl Iterator<Item = &[u8]> {
    (0..slot_count(buf)).filter_map(|s| read(buf, Slot(s)))
}

/// Whether the page holds no live record (its directory may still list
/// freed slots).
pub fn is_empty(buf: &[u8]) -> bool {
    records(buf).next().is_none()
}

/// Total live payload bytes on the page.
pub fn live_bytes(buf: &[u8]) -> usize {
    let n = slot_count(buf);
    (0..n)
        .map(|s| {
            let (off, len) = slot_entry(buf, s);
            if off == FREE_SLOT {
                0
            } else {
                len as usize
            }
        })
        .sum()
}

/// Bytes that [`compact`] could reclaim (dead record bytes).
pub fn dead_bytes(buf: &[u8]) -> usize {
    let record_area = buf.len().saturating_sub(free_end(buf));
    record_area.saturating_sub(live_bytes(buf))
}

fn find_free_slot(buf: &[u8]) -> Option<u16> {
    let n = slot_count(buf);
    (0..n).find(|&s| slot_entry(buf, s).0 == FREE_SLOT)
}

/// Where an insert of `n` bytes would go: the freed slot it would take
/// over (if any) and whether the page must be compacted first. `None`
/// if the record does not fit even then. [`fits`] and [`insert`] both
/// decide through this, so they cannot disagree.
fn room(buf: &[u8], n: usize) -> Option<(Option<u16>, bool)> {
    if n > MAX_RECORD {
        return None;
    }
    let reuse = find_free_slot(buf);
    let need = n + if reuse.is_some() { 0 } else { SLOT_BYTES };
    if gap(buf) >= need {
        Some((reuse, false))
    } else if reclaimable(buf) >= need {
        Some((reuse, true))
    } else {
        None
    }
}

/// Whether [`insert`] would accept a record of `n` bytes, counting the
/// dead bytes it can compact away and the slot entry it may need.
pub fn fits(buf: &[u8], n: usize) -> bool {
    room(buf, n).is_some()
}

/// Insert `data` into the page, returning the slot, or `None` if it does
/// not fit even after compaction.
pub fn insert(buf: &mut [u8], data: &[u8]) -> Option<Slot> {
    let (reuse, squeeze) = room(buf, data.len())?;
    if squeeze {
        compact(buf);
    }
    let slot_cost = if reuse.is_some() { 0 } else { SLOT_BYTES };
    // Compaction recovers exactly the dead bytes of a well-formed page;
    // on a malformed one this keeps the layer total.
    if gap(buf) < data.len() + slot_cost {
        return None;
    }
    let new_end = free_end(buf) - data.len();
    copy_into(buf, new_end, data);
    put_u16(buf, 2, new_end as u16);
    let slot = match reuse {
        Some(s) => s,
        None => {
            let s = slot_count(buf);
            put_u16(buf, 0, s + 1);
            s
        }
    };
    set_slot_entry(buf, slot, new_end as u16, data.len() as u16);
    Some(Slot(slot))
}

/// Read the record in `slot`, if live.
pub fn read(buf: &[u8], slot: Slot) -> Option<&[u8]> {
    if slot.0 >= slot_count(buf) {
        return None;
    }
    let (off, len) = slot_entry(buf, slot.0);
    if off == FREE_SLOT {
        return None;
    }
    buf.get(off as usize..off as usize + len as usize)
}

/// Remove the record in `slot`. Returns `false` if the slot was not live.
pub fn remove(buf: &mut [u8], slot: Slot) -> bool {
    if slot.0 >= slot_count(buf) {
        return false;
    }
    let (off, _) = slot_entry(buf, slot.0);
    if off == FREE_SLOT {
        return false;
    }
    set_slot_entry(buf, slot.0, FREE_SLOT, 0);
    true
}

/// Update the record in `slot` in place if possible, otherwise relocate it
/// within the page (compacting if needed). Returns `false` if the page
/// cannot hold the new value; the old value is left intact in that case.
pub fn update(buf: &mut [u8], slot: Slot, data: &[u8]) -> bool {
    if slot.0 >= slot_count(buf) || data.len() > MAX_RECORD {
        return false;
    }
    let (off, len) = slot_entry(buf, slot.0);
    if off == FREE_SLOT {
        return false;
    }
    if data.len() <= len as usize {
        let off = off as usize;
        copy_into(buf, off, data);
        set_slot_entry(buf, slot.0, off as u16, data.len() as u16);
        return true;
    }
    // Relocate: the slot keeps its index, so callers' object table stays valid.
    let gap = free_end(buf).saturating_sub(dir_bytes(buf));
    let reclaimable = dead_bytes(buf) + len as usize;
    if gap + reclaimable < data.len() {
        return false;
    }
    set_slot_entry(buf, slot.0, FREE_SLOT, 0);
    if free_end(buf).saturating_sub(dir_bytes(buf)) < data.len() {
        compact(buf);
    }
    let new_end = free_end(buf) - data.len();
    copy_into(buf, new_end, data);
    put_u16(buf, 2, new_end as u16);
    set_slot_entry(buf, slot.0, new_end as u16, data.len() as u16);
    true
}

/// Rewrite all live records to the end of the page, squeezing out dead
/// bytes. Slot indices are preserved.
pub fn compact(buf: &mut [u8]) {
    let n = slot_count(buf);
    let mut live: Vec<(u16, Vec<u8>)> = Vec::with_capacity(n as usize);
    for s in 0..n {
        let (off, len) = slot_entry(buf, s);
        if off != FREE_SLOT {
            if let Some(rec) = buf.get(off as usize..off as usize + len as usize) {
                live.push((s, rec.to_vec()));
            }
        }
    }
    let mut end = buf.len();
    for (s, data) in &live {
        end -= data.len();
        copy_into(buf, end, data);
        set_slot_entry(buf, *s, end as u16, data.len() as u16);
    }
    put_u16(buf, 2, end as u16);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut buf = vec![0u8; crate::PAGE_PAYLOAD];
        init(&mut buf);
        buf
    }

    #[test]
    fn insert_read_round_trip() {
        let mut p = fresh();
        let a = insert(&mut p, b"alpha").unwrap();
        let b = insert(&mut p, b"beta").unwrap();
        assert_ne!(a, b);
        assert_eq!(read(&p, a).unwrap(), b"alpha");
        assert_eq!(read(&p, b).unwrap(), b"beta");
    }

    #[test]
    fn empty_record_is_fine() {
        let mut p = fresh();
        let s = insert(&mut p, b"").unwrap();
        assert_eq!(read(&p, s).unwrap(), b"");
    }

    #[test]
    fn max_record_fits_exactly() {
        let mut p = fresh();
        let data = vec![7u8; MAX_RECORD];
        let s = insert(&mut p, &data).unwrap();
        assert_eq!(read(&p, s).unwrap(), &data[..]);
        assert!(insert(&mut p, b"x").is_none());
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = fresh();
        assert!(insert(&mut p, &vec![0u8; MAX_RECORD + 1]).is_none());
    }

    #[test]
    fn remove_frees_slot_for_reuse() {
        let mut p = fresh();
        let a = insert(&mut p, b"one").unwrap();
        let _b = insert(&mut p, b"two").unwrap();
        assert!(remove(&mut p, a));
        assert!(!remove(&mut p, a), "double remove must fail");
        assert!(read(&p, a).is_none());
        let c = insert(&mut p, b"three").unwrap();
        assert_eq!(c, a, "freed slot index should be reused");
        assert_eq!(read(&p, c).unwrap(), b"three");
    }

    #[test]
    fn update_in_place_shrink_and_grow() {
        let mut p = fresh();
        let s = insert(&mut p, b"0123456789").unwrap();
        assert!(update(&mut p, s, b"abc"));
        assert_eq!(read(&p, s).unwrap(), b"abc");
        assert!(update(&mut p, s, b"a-longer-value-than-before"));
        assert_eq!(read(&p, s).unwrap(), b"a-longer-value-than-before");
    }

    #[test]
    fn update_too_large_leaves_old_value() {
        let mut p = fresh();
        let filler = insert(&mut p, &vec![1u8; MAX_RECORD - 64]).unwrap();
        let s = insert(&mut p, b"small").unwrap();
        assert!(!update(&mut p, s, &[2u8; 200]));
        assert_eq!(read(&p, s).unwrap(), b"small");
        assert_eq!(read(&p, filler).unwrap().len(), MAX_RECORD - 64);
    }

    #[test]
    fn compaction_reclaims_dead_bytes() {
        let mut p = fresh();
        let mut slots = Vec::new();
        for i in 0..8 {
            slots.push(insert(&mut p, &vec![i as u8; 400]).unwrap());
        }
        // Free every other record, then insert something that only fits
        // after compaction.
        for s in slots.iter().step_by(2) {
            assert!(remove(&mut p, *s));
        }
        assert!(dead_bytes(&p) >= 4 * 400);
        let big = insert(&mut p, &vec![9u8; 1200]).expect("fits after compaction");
        assert_eq!(read(&p, big).unwrap(), &vec![9u8; 1200][..]);
        // Survivors unharmed.
        for s in slots.iter().skip(1).step_by(2) {
            assert_eq!(read(&p, *s).unwrap().len(), 400);
        }
    }

    #[test]
    fn fill_page_until_full_then_free_space_is_small() {
        let mut p = fresh();
        let mut count = 0;
        while insert(&mut p, &[0u8; 100]).is_some() {
            count += 1;
        }
        assert!(count >= 35, "expected ~39 inserts of 104B, got {count}");
        assert!(reclaimable(&p) < 104);
        assert!(!fits(&p, 100));
        assert_eq!(live_bytes(&p), count * 100);
    }

    #[test]
    fn read_bad_slot_is_none() {
        let p = fresh();
        assert!(read(&p, Slot(0)).is_none());
        assert!(read(&p, Slot(999)).is_none());
    }

    #[test]
    fn update_relocates_within_page_and_preserves_others() {
        let mut p = fresh();
        let a = insert(&mut p, &vec![1u8; 1000]).unwrap();
        let b = insert(&mut p, &vec![2u8; 1000]).unwrap();
        let c = insert(&mut p, &vec![3u8; 1000]).unwrap();
        remove(&mut p, b);
        // Growing `a` beyond its slot forces relocation + compaction.
        assert!(update(&mut p, a, &vec![9u8; 1800]));
        assert_eq!(read(&p, a).unwrap(), &vec![9u8; 1800][..]);
        assert_eq!(read(&p, c).unwrap(), &vec![3u8; 1000][..]);
    }
}
