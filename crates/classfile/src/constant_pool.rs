//! The classfile constant pool (JVMS §4.4).
//!
//! The pool is 1-indexed; `CONSTANT_Long` and `CONSTANT_Double` entries occupy
//! two slots, the second of which is unusable. [`ConstantPool`] preserves that
//! layout exactly so indices written by [`crate::ClassFile::to_bytes`] match
//! what a real JVM expects.

use std::error::Error;
use std::fmt;
use std::hash::Hasher;

use rustc_hash::{FxHashMap, FxHasher};

/// The most pool slots a classfile can carry: `constant_pool_count` is a
/// `u16` holding *slots + 1* (JVMS §4.1), so 65534 slots is the ceiling.
pub const MAX_POOL_SLOTS: usize = u16::MAX as usize - 1;

/// The pool is full: admitting the entry would push `constant_pool_count`
/// past `u16::MAX` and silently alias low slot numbers on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolFullError {
    /// Slots the rejected entry needed (2 for `Long`/`Double`).
    pub needed: usize,
}

impl fmt::Display for PoolFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "constant pool full: {MAX_POOL_SLOTS} slots in use, entry needs {} more",
            self.needed
        )
    }
}

impl Error for PoolFullError {}

/// A 1-based index into the constant pool.
///
/// Index `0` is representable (mutators may deliberately produce dangling
/// zero references) but never valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ConstIndex(pub u16);

impl fmt::Display for ConstIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u16> for ConstIndex {
    fn from(v: u16) -> Self {
        ConstIndex(v)
    }
}

impl From<ConstIndex> for u16 {
    fn from(v: ConstIndex) -> u16 {
        v.0
    }
}

/// One constant-pool entry (JVMS table 4.4-A, Java SE 7 tag set).
#[derive(Debug, Clone, PartialEq)]
pub enum Constant {
    /// `CONSTANT_Utf8` — modified-UTF-8 text. Stored as a Rust string; the
    /// (rare) surrogate encodings of real modified UTF-8 are normalized away.
    Utf8(String),
    /// `CONSTANT_Integer`.
    Integer(i32),
    /// `CONSTANT_Float`.
    Float(f32),
    /// `CONSTANT_Long` (occupies two slots).
    Long(i64),
    /// `CONSTANT_Double` (occupies two slots).
    Double(f64),
    /// `CONSTANT_Class` — points at a `Utf8` binary class name.
    Class(ConstIndex),
    /// `CONSTANT_String` — points at a `Utf8`.
    String(ConstIndex),
    /// `CONSTANT_Fieldref` — (class, name-and-type).
    FieldRef(ConstIndex, ConstIndex),
    /// `CONSTANT_Methodref` — (class, name-and-type).
    MethodRef(ConstIndex, ConstIndex),
    /// `CONSTANT_InterfaceMethodref` — (class, name-and-type).
    InterfaceMethodRef(ConstIndex, ConstIndex),
    /// `CONSTANT_NameAndType` — (name `Utf8`, descriptor `Utf8`).
    NameAndType(ConstIndex, ConstIndex),
    /// `CONSTANT_MethodHandle` — (reference kind, reference index).
    MethodHandle(u8, ConstIndex),
    /// `CONSTANT_MethodType` — points at a descriptor `Utf8`.
    MethodType(ConstIndex),
    /// `CONSTANT_InvokeDynamic` — (bootstrap method attr index, name-and-type).
    InvokeDynamic(u16, ConstIndex),
    /// Padding slot following a `Long`/`Double`. Never serialized.
    Unusable,
}

impl Constant {
    /// The JVMS tag byte for this entry, or `None` for the padding slot.
    pub fn tag(&self) -> Option<u8> {
        Some(match self {
            Constant::Utf8(_) => 1,
            Constant::Integer(_) => 3,
            Constant::Float(_) => 4,
            Constant::Long(_) => 5,
            Constant::Double(_) => 6,
            Constant::Class(_) => 7,
            Constant::String(_) => 8,
            Constant::FieldRef(..) => 9,
            Constant::MethodRef(..) => 10,
            Constant::InterfaceMethodRef(..) => 11,
            Constant::NameAndType(..) => 12,
            Constant::MethodHandle(..) => 15,
            Constant::MethodType(_) => 16,
            Constant::InvokeDynamic(..) => 18,
            Constant::Unusable => return None,
        })
    }

    /// Returns `true` for `Long` and `Double`, which occupy two pool slots.
    pub fn is_wide(&self) -> bool {
        matches!(self, Constant::Long(_) | Constant::Double(_))
    }

    /// A short human-readable name for the entry kind (used by the printer).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Constant::Utf8(_) => "Utf8",
            Constant::Integer(_) => "Integer",
            Constant::Float(_) => "Float",
            Constant::Long(_) => "Long",
            Constant::Double(_) => "Double",
            Constant::Class(_) => "Class",
            Constant::String(_) => "String",
            Constant::FieldRef(..) => "Fieldref",
            Constant::MethodRef(..) => "Methodref",
            Constant::InterfaceMethodRef(..) => "InterfaceMethodref",
            Constant::NameAndType(..) => "NameAndType",
            Constant::MethodHandle(..) => "MethodHandle",
            Constant::MethodType(_) => "MethodType",
            Constant::InvokeDynamic(..) => "InvokeDynamic",
            Constant::Unusable => "Unusable",
        }
    }
}

/// The constant pool of a classfile.
///
/// Entries are stored with real JVMS slot numbering: `entry(ConstIndex(1))`
/// is the first entry, and wide entries are followed by an
/// [`Constant::Unusable`] padding slot.
///
/// # Examples
///
/// ```
/// use classfuzz_classfile::{Constant, ConstantPool};
///
/// let mut cp = ConstantPool::new();
/// let name = cp.utf8("java/lang/Object");
/// let class = cp.class("java/lang/Object");
/// assert_eq!(cp.utf8("java/lang/Object"), name); // deduplicated
/// assert_eq!(cp.class_name(class), Some("java/lang/Object".to_string()));
/// ```
#[derive(Debug, Default)]
pub struct ConstantPool {
    entries: Vec<Constant>,
    /// How many leading `entries` the two interning maps cover. Only the
    /// interning calls read the maps, and each first catches them up to
    /// the whole pool ([`ConstantPool::sync_index`]), so a parsed pool
    /// that is only ever looked up never builds them.
    indexed: usize,
    /// Utf8 interning index: hash of the text → the lowest index of a
    /// `Utf8` entry with that hash. Keyed by hash instead of an owned
    /// `String` so interning a fresh string allocates it exactly once (the
    /// copy in `entries`). A candidate whose text differs is a hash
    /// collision, resolved by scanning `entries`, so a collision costs a
    /// scan, never a wrong index.
    utf8_index: FxHashMap<u64, ConstIndex>,
    /// Index of every other entry kind: (tag, payload bits) → the lowest
    /// index holding exactly that entry. Bit keys make `Float`/`Double`
    /// interning bit-exact (NaN payloads and `-0.0` stay distinct).
    bits_index: FxHashMap<(u8, u64), ConstIndex>,
    /// String buffers salvaged by [`ConstantPool::clear`], reused by the
    /// next interning misses. Transient scratch, not pool value: cleared
    /// pools re-intern mostly the same names, so the buffers cycle instead
    /// of being freed and reallocated every iteration.
    recycled: Vec<String>,
}

/// FxHash of a Utf8 entry's text: the `utf8_index` key. Any hash is
/// sound here, because a colliding candidate costs a scan, never a wrong
/// index (DESIGN.md §12).
fn utf8_hash(text: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(text.as_bytes());
    h.finish()
}

/// The `bits_index` key of a non-Utf8 entry: its tag and its whole payload
/// packed into 64 bits. `None` for `Utf8` and the padding slot.
fn bits_key(constant: &Constant) -> Option<(u8, u64)> {
    let pair = |hi: u16, lo: u16| (hi as u64) << 16 | lo as u64;
    let bits = match *constant {
        Constant::Utf8(_) | Constant::Unusable => return None,
        Constant::Integer(v) => v as u32 as u64,
        Constant::Float(v) => v.to_bits() as u64,
        Constant::Long(v) => v as u64,
        Constant::Double(v) => v.to_bits(),
        Constant::Class(i) | Constant::String(i) | Constant::MethodType(i) => i.0 as u64,
        Constant::FieldRef(a, b)
        | Constant::MethodRef(a, b)
        | Constant::InterfaceMethodRef(a, b)
        | Constant::NameAndType(a, b) => pair(a.0, b.0),
        Constant::MethodHandle(kind, i) => pair(kind as u16, i.0),
        Constant::InvokeDynamic(bootstrap, i) => pair(bootstrap, i.0),
    };
    Some((constant.tag()?, bits))
}

impl PartialEq for ConstantPool {
    /// Pools are equal when their slots are: the interning index is a
    /// cache derived from `entries`, not part of the pool's value.
    fn eq(&self, other: &ConstantPool) -> bool {
        self.entries == other.entries
    }
}

impl Clone for ConstantPool {
    /// Clones the pool's value, its entries. The interning index is a
    /// cache the copy rebuilds on its first interning call, and the
    /// salvage list is per-instance scratch that starts empty.
    fn clone(&self) -> Self {
        ConstantPool::from_entries(self.entries.clone())
    }
}

impl ConstantPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        ConstantPool::default()
    }

    /// A pool over `entries` as laid out on the wire: each wide entry
    /// already followed by its padding slot. No index is built; the first
    /// interning call builds it.
    pub(crate) fn from_entries(entries: Vec<Constant>) -> Self {
        debug_assert!(entries.len() <= MAX_POOL_SLOTS);
        ConstantPool {
            entries,
            ..ConstantPool::default()
        }
    }

    /// Number of slots (the classfile's `constant_pool_count` is this + 1).
    ///
    /// Never exceeds [`MAX_POOL_SLOTS`]: [`push`](Self::push) saturates and
    /// [`try_push`](Self::try_push) errors at the JVMS ceiling, and a parsed
    /// pool holds fewer slots than its `u16` count, so this cast cannot
    /// truncate.
    pub fn slot_count(&self) -> u16 {
        self.entries.len() as u16
    }

    /// Returns the entry at `index`, or `None` when the index is 0, out of
    /// range, or a padding slot is addressed.
    pub fn entry(&self, index: ConstIndex) -> Option<&Constant> {
        if index.0 == 0 {
            return None;
        }
        self.entries.get(index.0 as usize - 1)
    }

    /// Iterates over `(index, entry)` pairs, including padding slots.
    pub fn iter(&self) -> impl Iterator<Item = (ConstIndex, &Constant)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, c)| (ConstIndex(i as u16 + 1), c))
    }

    /// Appends an entry verbatim (no deduplication) and returns its index.
    ///
    /// Wide entries automatically append their padding slot.
    ///
    /// When the pool is at [`MAX_POOL_SLOTS`] the entry is *not* added and
    /// the null index `ConstIndex(0)` comes back — the one index that is
    /// never valid, which [`entry`](Self::entry) resolves to `None` — rather
    /// than wrapping `u16` arithmetic into an alias of a low slot. Callers
    /// that must distinguish "full" from a real index use
    /// [`try_push`](Self::try_push).
    pub fn push(&mut self, constant: Constant) -> ConstIndex {
        self.try_push(constant).unwrap_or(ConstIndex(0))
    }

    /// Appends an entry verbatim, failing when the pool cannot take it.
    ///
    /// # Errors
    ///
    /// [`PoolFullError`] when the entry's slots (2 for `Long`/`Double`)
    /// would push the pool past [`MAX_POOL_SLOTS`]. The pool is unchanged
    /// on failure.
    pub fn try_push(&mut self, constant: Constant) -> Result<ConstIndex, PoolFullError> {
        let needed = if constant.is_wide() { 2 } else { 1 };
        if self.entries.len() + needed > MAX_POOL_SLOTS {
            return Err(PoolFullError { needed });
        }
        self.entries.push(constant);
        let index = ConstIndex(self.entries.len() as u16);
        if needed == 2 {
            self.entries.push(Constant::Unusable);
        }
        Ok(index)
    }

    /// Extends the interning maps over the entries appended since they
    /// were last caught up, in slot order, so each key keeps its lowest
    /// index.
    fn sync_index(&mut self) {
        for (i, constant) in self.entries.iter().enumerate().skip(self.indexed) {
            let index = ConstIndex(i as u16 + 1);
            match constant {
                Constant::Utf8(text) => {
                    self.utf8_index.entry(utf8_hash(text)).or_insert(index);
                }
                other => {
                    if let Some(key) = bits_key(other) {
                        self.bits_index.entry(key).or_insert(index);
                    }
                }
            }
        }
        self.indexed = self.entries.len();
    }

    /// Interns a `Utf8` entry, reusing the lowest-indexed identical entry.
    pub fn utf8(&mut self, text: &str) -> ConstIndex {
        self.sync_index();
        let hash = utf8_hash(text);
        if let Some(&candidate) = self.utf8_index.get(&hash) {
            if self.utf8_text(candidate) == Some(text) {
                return candidate;
            }
            if let Some(found) = self.scan_utf8(text) {
                return found;
            }
        }
        let owned = match self.recycled.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.push_str(text);
                buf
            }
            None => text.to_string(),
        };
        let index = self.push(Constant::Utf8(owned));
        if index.0 != 0 {
            self.utf8_index.entry(hash).or_insert(index);
            self.indexed = self.entries.len();
        }
        index
    }

    /// The lowest index of a `Utf8` entry reading `text`: the fallback
    /// when the index's candidate for the hash is a collision.
    fn scan_utf8(&self, text: &str) -> Option<ConstIndex> {
        self.iter()
            .find(|(_, c)| matches!(c, Constant::Utf8(s) if s == text))
            .map(|(i, _)| i)
    }

    /// Empties the pool while retaining its allocated capacity — the
    /// between-iterations reset of the scratch-lowering pool
    /// (`classfuzz_jimple::lower::LowerScratch`). `Utf8` string buffers
    /// are salvaged for the next round's interning misses.
    pub fn clear(&mut self) {
        self.recycled
            .extend(self.entries.drain(..).filter_map(|c| match c {
                Constant::Utf8(s) => Some(s),
                _ => None,
            }));
        self.utf8_index.clear();
        self.bits_index.clear();
        self.indexed = 0;
    }

    /// Interns a `Class` entry for the binary name `name`.
    pub fn class(&mut self, name: &str) -> ConstIndex {
        let name_idx = self.utf8(name);
        self.find_or_push(Constant::Class(name_idx))
    }

    /// Interns a `String` entry for `text`.
    pub fn string(&mut self, text: &str) -> ConstIndex {
        let idx = self.utf8(text);
        self.find_or_push(Constant::String(idx))
    }

    /// Interns an `Integer` entry.
    pub fn integer(&mut self, value: i32) -> ConstIndex {
        self.find_or_push(Constant::Integer(value))
    }

    /// Interns a `Long` entry.
    pub fn long(&mut self, value: i64) -> ConstIndex {
        self.find_or_push(Constant::Long(value))
    }

    /// Interns a `Float` entry (bit-exact comparison).
    pub fn float(&mut self, value: f32) -> ConstIndex {
        self.find_or_push(Constant::Float(value))
    }

    /// Interns a `Double` entry (bit-exact comparison).
    pub fn double(&mut self, value: f64) -> ConstIndex {
        self.find_or_push(Constant::Double(value))
    }

    /// Interns a `NameAndType` entry.
    pub fn name_and_type(&mut self, name: &str, descriptor: &str) -> ConstIndex {
        let n = self.utf8(name);
        let d = self.utf8(descriptor);
        self.find_or_push(Constant::NameAndType(n, d))
    }

    /// Interns a `Fieldref` entry.
    pub fn field_ref(&mut self, class: &str, name: &str, descriptor: &str) -> ConstIndex {
        let c = self.class(class);
        let nt = self.name_and_type(name, descriptor);
        self.find_or_push(Constant::FieldRef(c, nt))
    }

    /// Interns a `Methodref` entry.
    pub fn method_ref(&mut self, class: &str, name: &str, descriptor: &str) -> ConstIndex {
        let c = self.class(class);
        let nt = self.name_and_type(name, descriptor);
        self.find_or_push(Constant::MethodRef(c, nt))
    }

    /// Interns an `InterfaceMethodref` entry.
    pub fn interface_method_ref(
        &mut self,
        class: &str,
        name: &str,
        descriptor: &str,
    ) -> ConstIndex {
        let c = self.class(class);
        let nt = self.name_and_type(name, descriptor);
        self.find_or_push(Constant::InterfaceMethodRef(c, nt))
    }

    /// Interns a non-Utf8 entry through `bits_index`. (Every caller
    /// passes a keyed kind; a `Utf8` or padding slot would be appended
    /// verbatim.)
    fn find_or_push(&mut self, constant: Constant) -> ConstIndex {
        self.sync_index();
        let Some(key) = bits_key(&constant) else {
            return self.push(constant);
        };
        if let Some(&index) = self.bits_index.get(&key) {
            return index;
        }
        let index = self.push(constant);
        if index.0 != 0 {
            self.bits_index.insert(key, index);
            self.indexed = self.entries.len();
        }
        index
    }

    /// Resolves a `Utf8` entry to its text.
    pub fn utf8_text(&self, index: ConstIndex) -> Option<&str> {
        match self.entry(index)? {
            Constant::Utf8(s) => Some(s),
            _ => None,
        }
    }

    /// Resolves a `Class` entry to its binary name, borrowed from the pool.
    pub fn class_name_str(&self, index: ConstIndex) -> Option<&str> {
        match self.entry(index)? {
            Constant::Class(n) => self.utf8_text(*n),
            _ => None,
        }
    }

    /// Resolves a `Class` entry to an owned copy of its binary name.
    pub fn class_name(&self, index: ConstIndex) -> Option<String> {
        self.class_name_str(index).map(str::to_string)
    }

    /// Resolves a `NameAndType` entry to `(name, descriptor)`.
    pub fn name_and_type_parts(&self, index: ConstIndex) -> Option<(String, String)> {
        let (name, desc) = self.name_and_type_str(index)?;
        Some((name.to_string(), desc.to_string()))
    }

    fn name_and_type_str(&self, index: ConstIndex) -> Option<(&str, &str)> {
        match self.entry(index)? {
            Constant::NameAndType(n, d) => Some((self.utf8_text(*n)?, self.utf8_text(*d)?)),
            _ => None,
        }
    }

    /// Resolves any of the three `*ref` kinds to `(class, name,
    /// descriptor)`, borrowed from the pool.
    pub fn member_ref_parts_str(&self, index: ConstIndex) -> Option<(&str, &str, &str)> {
        let (class_idx, nt_idx) = match self.entry(index)? {
            Constant::FieldRef(c, nt)
            | Constant::MethodRef(c, nt)
            | Constant::InterfaceMethodRef(c, nt) => (*c, *nt),
            _ => return None,
        };
        let class = self.class_name_str(class_idx)?;
        let (name, desc) = self.name_and_type_str(nt_idx)?;
        Some((class, name, desc))
    }

    /// [`member_ref_parts_str`](Self::member_ref_parts_str) as owned copies.
    pub fn member_ref_parts(&self, index: ConstIndex) -> Option<(String, String, String)> {
        let (class, name, desc) = self.member_ref_parts_str(index)?;
        Some((class.to_string(), name.to_string(), desc.to_string()))
    }
}

impl fmt::Display for ConstantPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Constant pool:")?;
        for (idx, c) in self.iter() {
            if matches!(c, Constant::Unusable) {
                continue;
            }
            writeln!(f, "  {idx} = {} {c:?}", c.kind_name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_based_indexing() {
        let mut cp = ConstantPool::new();
        let a = cp.utf8("a");
        assert_eq!(a, ConstIndex(1));
        assert_eq!(cp.utf8_text(a), Some("a"));
        assert_eq!(cp.entry(ConstIndex(0)), None);
    }

    #[test]
    fn wide_entries_take_two_slots() {
        let mut cp = ConstantPool::new();
        let l = cp.long(7);
        assert_eq!(l, ConstIndex(1));
        assert_eq!(cp.entry(ConstIndex(2)), Some(&Constant::Unusable));
        let next = cp.utf8("x");
        assert_eq!(next, ConstIndex(3));
        assert_eq!(cp.slot_count(), 3);
    }

    #[test]
    fn interning_deduplicates() {
        let mut cp = ConstantPool::new();
        let a = cp.class("java/lang/Object");
        let b = cp.class("java/lang/Object");
        assert_eq!(a, b);
        let m1 = cp.method_ref("A", "m", "()V");
        let m2 = cp.method_ref("A", "m", "()V");
        assert_eq!(m1, m2);
        let m3 = cp.method_ref("A", "m", "()I");
        assert_ne!(m1, m3);
    }

    #[test]
    fn member_ref_resolution() {
        let mut cp = ConstantPool::new();
        let r = cp.field_ref("java/lang/System", "out", "Ljava/io/PrintStream;");
        assert_eq!(
            cp.member_ref_parts(r),
            Some((
                "java/lang/System".to_string(),
                "out".to_string(),
                "Ljava/io/PrintStream;".to_string()
            ))
        );
    }

    #[test]
    fn pool_saturates_at_jvms_slot_limit() {
        let mut cp = ConstantPool::new();
        for i in 0..MAX_POOL_SLOTS {
            assert_ne!(cp.push(Constant::Integer(i as i32)), ConstIndex(0));
        }
        assert_eq!(cp.slot_count() as usize, MAX_POOL_SLOTS);
        // Full: further pushes saturate to the null index (never wrap back
        // to slot 1) and leave the pool untouched.
        assert_eq!(cp.push(Constant::Integer(-1)), ConstIndex(0));
        assert_eq!(
            cp.try_push(Constant::Utf8("late".into())),
            Err(PoolFullError { needed: 1 })
        );
        assert_eq!(cp.slot_count() as usize, MAX_POOL_SLOTS);
        // The rejected Utf8 was not interned either.
        assert_eq!(cp.utf8_text(ConstIndex(1)), None);
    }

    #[test]
    fn wide_entry_needs_two_free_slots() {
        let mut cp = ConstantPool::new();
        for _ in 0..MAX_POOL_SLOTS - 1 {
            cp.push(Constant::Integer(0));
        }
        assert_eq!(
            cp.try_push(Constant::Long(1)),
            Err(PoolFullError { needed: 2 })
        );
        // A narrow entry still fits in the final slot.
        assert_eq!(cp.push(Constant::Integer(1)).0 as usize, MAX_POOL_SLOTS);
    }

    #[test]
    fn utf8_interning_survives_verbatim_duplicates_and_clear() {
        let mut cp = ConstantPool::new();
        let a = cp.utf8("dup");
        // A verbatim duplicate pushed around the interner...
        let b = cp.push(Constant::Utf8("dup".into()));
        assert_ne!(a, b);
        // ...does not disturb interning: the lowest index still wins.
        assert_eq!(cp.utf8("dup"), a);
        cp.clear();
        assert_eq!(cp.slot_count(), 0);
        assert_eq!(cp.entry(ConstIndex(1)), None);
        // Stale dedup state must not leak across the reset.
        assert_eq!(cp.utf8("fresh"), ConstIndex(1));
        assert_eq!(cp.utf8_text(ConstIndex(1)), Some("fresh"));
        assert_eq!(cp.utf8("dup"), ConstIndex(2));
    }

    #[test]
    fn equality_is_entry_equality() {
        // Two pools with identical slots compare equal regardless of the
        // interning history that built them.
        let mut a = ConstantPool::new();
        a.utf8("x");
        a.utf8("x");
        let mut b = ConstantPool::new();
        b.push(Constant::Utf8("x".into()));
        assert_eq!(a, b);
        b.utf8("y");
        assert_ne!(a, b);
    }

    #[test]
    fn parsed_pools_index_on_first_intern() {
        let mut cp = ConstantPool::from_entries(vec![
            Constant::Utf8("x".into()),
            Constant::Long(1),
            Constant::Unusable,
        ]);
        // Lookups never build the index.
        assert_eq!(cp.utf8_text(ConstIndex(1)), Some("x"));
        assert_eq!(cp.entry(ConstIndex(2)), Some(&Constant::Long(1)));
        assert_eq!(cp.indexed, 0);
        assert!(cp.utf8_index.is_empty() && cp.bits_index.is_empty());
        // The first interning call indexes every entry, wide ones included.
        assert_eq!(cp.long(1), ConstIndex(2));
        assert_eq!(cp.indexed, 3);
        assert_eq!(cp.utf8("x"), ConstIndex(1));
        assert_eq!(cp.slot_count(), 3);
    }

    #[test]
    fn utf8_hash_collision_falls_back_to_a_scan() {
        let mut cp = ConstantPool::new();
        let a = cp.utf8("a");
        let b = cp.utf8("b");
        // Plant a wrong candidate, as a colliding hash would: the text
        // check rejects it and the scan finds the real entry.
        cp.utf8_index.insert(utf8_hash("b"), a);
        assert_eq!(cp.utf8("b"), b);
        // A colliding text with no entry yet is pushed, and found again
        // by the scan while the map keeps its lower candidate.
        cp.utf8_index.insert(utf8_hash("c"), a);
        let c = cp.utf8("c");
        assert_eq!(c, ConstIndex(3));
        assert_eq!(cp.utf8_text(c), Some("c"));
        assert_eq!(cp.utf8_index[&utf8_hash("c")], a);
        assert_eq!(cp.utf8("c"), c);
        assert_eq!(cp.slot_count(), 3);
    }

    #[test]
    fn clones_rebuild_their_index() {
        let mut cp = ConstantPool::new();
        let a = cp.class("A");
        let mut copy = cp.clone();
        assert_eq!(copy.indexed, 0);
        assert_eq!(copy.class("A"), a);
        assert_eq!(copy, cp);
    }

    #[test]
    fn float_interning_is_bit_exact() {
        let mut cp = ConstantPool::new();
        let a = cp.float(0.0);
        let b = cp.float(-0.0);
        assert_ne!(a, b);
        let c = cp.float(f32::NAN);
        let d = cp.float(f32::NAN);
        assert_eq!(c, d);
        // Another NaN payload is another entry; doubles behave alike.
        assert_ne!(cp.float(f32::from_bits(0x7fc0_0001)), c);
        assert_ne!(cp.double(0.0), cp.double(-0.0));
        assert_eq!(cp.double(f64::NAN), cp.double(f64::NAN));
    }
}
