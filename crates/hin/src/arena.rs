//! Interned object-name storage: one contiguous byte arena per graph.
//!
//! At million-object scale the old layout — `Vec<String>` for names plus a
//! `HashMap<String, u32>` whose keys duplicate every byte — costs two heap
//! allocations and ~48 bytes of header per object before the first link is
//! stored. [`NameArena`] replaces both: all names live in **one** byte
//! buffer, addressed by a `u32` offset table, and [`NameIndex`] is an
//! open-addressing hash table whose slots are object ids — the arena itself
//! is the key storage, so the index adds exactly one `Vec<u32>`.
//!
//! # Invariants
//!
//! * `offsets.len() == n + 1` for `n` stored names; `offsets[0] == 0`,
//!   `offsets` is monotonically non-decreasing, and
//!   `offsets[n] as usize == bytes.len()`.
//! * Every span `bytes[offsets[i]..offsets[i+1]]` is valid UTF-8 (names
//!   enter through `&str`, and the codec re-validates each span on decode).
//! * Total byte length and name count both fit in `u32` — enforced via
//!   [`crate::error::HinError::CapacityExceeded`] on the construction paths.
//! * [`NameIndex`] maps a name to its **first** registration (duplicate
//!   names resolve to the earliest object id, matching a forward scan).
//! * The index holds at most one entry per distinct name; its capacity is
//!   sized once for the final object count (load factor ≤ ~0.7), so lookups
//!   stay O(1) and the build path performs one allocation total.

use crate::error::HinError;

/// All object names of one graph, concatenated: `bytes` + `u32` offsets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameArena {
    bytes: Vec<u8>,
    /// `n + 1` entries; span `i` is `bytes[offsets[i] as usize..offsets[i+1] as usize]`.
    offsets: Vec<u32>,
}

impl NameArena {
    /// An empty arena (zero names).
    pub fn new() -> Self {
        NameArena {
            bytes: Vec::new(),
            offsets: vec![0],
        }
    }

    /// An empty arena pre-sized for `n_names` names totalling `n_bytes`
    /// bytes, so a bulk build performs no reallocation.
    pub fn with_capacity(n_names: usize, n_bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(n_names + 1);
        offsets.push(0);
        NameArena {
            bytes: Vec::with_capacity(n_bytes),
            offsets,
        }
    }

    /// Number of stored names.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no names are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total stored name bytes.
    #[inline]
    pub fn n_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Appends one name, returning its index. Errors if the arena would
    /// exceed `u32` addressing (byte length or name count).
    pub fn push(&mut self, name: &str) -> Result<u32, HinError> {
        let idx = crate::error::check_capacity("name-arena names", self.len())?;
        let end = self
            .bytes
            .len()
            .checked_add(name.len())
            .ok_or(HinError::CapacityExceeded {
                what: "name-arena bytes",
                requested: usize::MAX,
            })
            .and_then(|end| crate::error::check_capacity("name-arena bytes", end))?;
        self.bytes.extend_from_slice(name.as_bytes());
        self.offsets.push(end);
        Ok(idx)
    }

    /// The name at index `i`.
    ///
    /// Panics if `i` is out of range. The UTF-8 conversion cannot fail for
    /// arenas built through [`Self::push`] / the validating codec path.
    #[inline]
    pub fn get(&self, i: usize) -> &str {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        std::str::from_utf8(&self.bytes[lo..hi]).expect("arena spans are valid UTF-8")
    }

    /// The raw bytes of span `i` (no UTF-8 conversion).
    #[inline]
    fn span_bytes(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Appends every name of `other` (the delta-merge bulk path): two
    /// `extend_from_slice` calls plus an offset rebase — no per-name work.
    pub fn extend_from(&mut self, other: &NameArena) -> Result<(), HinError> {
        crate::error::check_capacity("name-arena names", self.len() + other.len())?;
        let base = self
            .bytes
            .len()
            .checked_add(other.bytes.len())
            .ok_or(HinError::CapacityExceeded {
                what: "name-arena bytes",
                requested: usize::MAX,
            })
            .map(|_| self.bytes.len() as u32)?;
        crate::error::check_capacity("name-arena bytes", self.bytes.len() + other.bytes.len())?;
        self.bytes.extend_from_slice(&other.bytes);
        self.offsets
            .extend(other.offsets[1..].iter().map(|&o| base + o));
        Ok(())
    }

    /// The contiguous name bytes (codec surface).
    #[inline]
    pub(crate) fn raw_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The `n + 1` offset table (codec surface).
    #[inline]
    pub(crate) fn raw_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Rebuilds an arena from decoded parts, validating every invariant:
    /// monotone offsets starting at 0 and ending at `bytes.len()`, and
    /// per-span UTF-8 (whole-buffer validation is not enough — a span
    /// boundary could split a multi-byte sequence).
    pub(crate) fn from_raw_parts(bytes: Vec<u8>, offsets: Vec<u32>) -> Option<Self> {
        let (&first, &last) = (offsets.first()?, offsets.last()?);
        if first != 0 || last as usize != bytes.len() {
            return None;
        }
        for w in offsets.windows(2) {
            // `get` also refuses an offset past the end that a later,
            // smaller one would have exposed as non-monotone.
            let span = bytes.get(w[0] as usize..w[1] as usize)?;
            if std::str::from_utf8(span).is_err() {
                return None;
            }
        }
        Some(NameArena { bytes, offsets })
    }
}

/// Sentinel for an unoccupied [`NameIndex`] slot.
const EMPTY: u32 = u32::MAX;

/// Open-addressing name → object-id index over a [`NameArena`].
///
/// Slots hold object ids; key bytes live in the arena, so the index never
/// copies a name. Linear probing over a power-of-two table sized for load
/// factor ≤ ~0.7. First registration wins for duplicate names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameIndex {
    slots: Vec<u32>,
    mask: usize,
    len: usize,
}

/// FNV-1a 64 over the name bytes (same function as the snapshot checksum,
/// re-implemented here to keep `genclus-hin` free of the stats dependency
/// direction).
#[inline]
fn hash_name(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl NameIndex {
    /// An index sized for `n` names (one allocation, never grown).
    pub fn with_capacity(n: usize) -> Self {
        // Load factor ≤ 0.7: table ≥ n / 0.7, rounded up to a power of two.
        let want = (n * 10).div_ceil(7).max(8);
        let cap = want.next_power_of_two();
        NameIndex {
            slots: vec![EMPTY; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// Number of distinct names indexed.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `id` under the name at `arena` span `id` unless that name is
    /// already present (first registration wins). The caller guarantees the
    /// table was sized for the final name count.
    pub fn insert_first_wins(&mut self, arena: &NameArena, id: u32) {
        let key = arena.span_bytes(id as usize);
        let mut slot = hash_name(key) as usize & self.mask;
        loop {
            let occupant = self.slots[slot];
            if occupant == EMPTY {
                self.slots[slot] = id;
                self.len += 1;
                return;
            }
            if arena.span_bytes(occupant as usize) == key {
                return; // Earlier registration keeps the name.
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Ensures the table can absorb a growth to `total` names without
    /// exceeding the target load factor, rehashing the existing entries if
    /// needed (the append path calls this before inserting a delta's
    /// names). Rehashing preserves first-wins semantics because the index
    /// holds at most one id per distinct name.
    pub fn grow_for(&mut self, arena: &NameArena, total: usize) {
        let want = (total * 10).div_ceil(7).max(8);
        if want <= self.slots.len() {
            return;
        }
        let mut fresh = NameIndex::with_capacity(total);
        for &id in &self.slots {
            if id != EMPTY {
                fresh.insert_first_wins(arena, id);
            }
        }
        *self = fresh;
    }

    /// Builds a fresh index over every name in `arena`.
    pub fn build(arena: &NameArena) -> Self {
        let mut idx = NameIndex::with_capacity(arena.len());
        for i in 0..arena.len() {
            idx.insert_first_wins(arena, i as u32);
        }
        idx
    }

    /// Looks up `name`, returning the first-registered object id.
    pub fn get(&self, arena: &NameArena, name: &str) -> Option<u32> {
        let key = name.as_bytes();
        let mut slot = hash_name(key) as usize & self.mask;
        loop {
            let occupant = self.slots[slot];
            if occupant == EMPTY {
                return None;
            }
            if arena.span_bytes(occupant as usize) == key {
                return Some(occupant);
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_round_trip() {
        let mut a = NameArena::new();
        assert!(a.is_empty());
        assert_eq!(a.push("alice").unwrap(), 0);
        assert_eq!(a.push("").unwrap(), 1);
        assert_eq!(a.push("böb").unwrap(), 2);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(0), "alice");
        assert_eq!(a.get(1), "");
        assert_eq!(a.get(2), "böb");
        // "alice" (5) + "" (0) + "böb" (4: ö is two bytes).
        assert_eq!(a.n_bytes(), 9);
    }

    #[test]
    fn extend_from_rebases_offsets() {
        let mut a = NameArena::new();
        a.push("x").unwrap();
        let mut b = NameArena::new();
        b.push("yy").unwrap();
        b.push("zzz").unwrap();
        a.extend_from(&b).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(0), "x");
        assert_eq!(a.get(1), "yy");
        assert_eq!(a.get(2), "zzz");
    }

    #[test]
    fn from_raw_parts_validates() {
        // Happy path.
        let a = NameArena::from_raw_parts(b"abcd".to_vec(), vec![0, 2, 4]).unwrap();
        assert_eq!(a.get(0), "ab");
        assert_eq!(a.get(1), "cd");
        // Non-monotone offsets.
        assert!(NameArena::from_raw_parts(b"abcd".to_vec(), vec![0, 3, 2]).is_none());
        // An offset past the end before a smaller final one: refused, not
        // sliced out of bounds.
        assert!(NameArena::from_raw_parts(b"abcd".to_vec(), vec![0, 100, 4]).is_none());
        // Final offset disagrees with the byte length.
        assert!(NameArena::from_raw_parts(b"abcd".to_vec(), vec![0, 2, 3]).is_none());
        // Empty offsets table.
        assert!(NameArena::from_raw_parts(Vec::new(), Vec::new()).is_none());
        // A span boundary splitting a multi-byte UTF-8 sequence: "é" is
        // [0xc3, 0xa9]; cutting between the two bytes must be rejected even
        // though the whole buffer is valid UTF-8.
        let e = "é".as_bytes().to_vec();
        assert!(NameArena::from_raw_parts(e.clone(), vec![0, 1, 2]).is_none());
        assert!(NameArena::from_raw_parts(e, vec![0, 2]).is_some());
    }

    #[test]
    fn index_first_registration_wins() {
        let mut a = NameArena::new();
        for name in ["n0", "dup", "n2", "dup", "n4"] {
            a.push(name).unwrap();
        }
        let idx = NameIndex::build(&a);
        assert_eq!(idx.len(), 4, "duplicate indexed once");
        assert_eq!(idx.get(&a, "n0"), Some(0));
        assert_eq!(idx.get(&a, "dup"), Some(1), "earliest id wins");
        assert_eq!(idx.get(&a, "n4"), Some(4));
        assert_eq!(idx.get(&a, "ghost"), None);
    }

    #[test]
    fn index_handles_collisions_densely() {
        let mut a = NameArena::new();
        let n = 500usize;
        for i in 0..n {
            a.push(&format!("obj-{i}")).unwrap();
        }
        let idx = NameIndex::build(&a);
        assert_eq!(idx.len(), n);
        for i in 0..n {
            assert_eq!(idx.get(&a, &format!("obj-{i}")), Some(i as u32));
        }
        assert_eq!(idx.get(&a, "obj-500"), None);
    }
}
