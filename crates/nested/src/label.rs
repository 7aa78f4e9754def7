//! Interned attribute labels.
//!
//! Attribute names repeat across every row of a dataset (`text`,
//! `user_mentions`, …), yet the engine used to carry each of them as an
//! owned `String` per item — so passing a row through an operator copied
//! every label. A [`Label`] is an `Arc<str>` handed out by a global symbol
//! table: constructing the same name twice yields two handles to the *same*
//! allocation, cloning is a reference-count bump, and equality is almost
//! always a pointer comparison.
//!
//! Labels intern on construction and are never evicted; the table is
//! bounded by the number of *distinct* attribute names, which is tiny
//! (schema-sized) for any real workload.
//!
//! The global table is the authority for pointer identity, but its lock
//! and SipHash are too dear to pay once per JSON key. Each thread keeps a
//! small direct-mapped cache of handles the table gave it; a repeated name
//! costs one FNV hash, one content check and a reference-count bump.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

/// An interned attribute name. Cheap to clone, compare, and hash; ordered
/// and hashed by string content so containers behave exactly as with
/// `String` keys (and deterministically across runs).
#[derive(Clone)]
pub struct Label(Arc<str>);

fn table() -> &'static Mutex<HashSet<Arc<str>>> {
    static TABLE: OnceLock<Mutex<HashSet<Arc<str>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Slots of the per-thread cache, 16 KiB per thread: enough that the
/// ~60 names of the generated schemas rarely share a slot and a schema of
/// a thousand attributes still mostly hits. Two names sharing a slot evict
/// each other and fall through to the table — slower, never wrong.
const CACHE_SLOTS: usize = 1024;

thread_local! {
    static CACHE: RefCell<[Option<Arc<str>>; CACHE_SLOTS]> =
        const { RefCell::new([const { None }; CACHE_SLOTS]) };
}

/// FNV-1a of `name`, folded to a cache slot.
fn cache_slot(name: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h ^ (h >> 32)) as usize % CACHE_SLOTS
}

fn intern(name: &str) -> Arc<str> {
    let mut t = table().lock().unwrap();
    if let Some(existing) = t.get(name) {
        return Arc::clone(existing);
    }
    let arc: Arc<str> = Arc::from(name);
    t.insert(Arc::clone(&arc));
    arc
}

impl Label {
    /// Interns `name`, returning the shared handle for it.
    pub fn new(name: &str) -> Self {
        let slot = cache_slot(name);
        // `try_with`: a label built while the thread's locals are being
        // torn down goes straight to the table.
        let cached = CACHE.try_with(|cache| {
            let mut cache = cache.borrow_mut();
            match &cache[slot] {
                Some(hit) if **hit == *name => Arc::clone(hit),
                _ => {
                    let arc = intern(name);
                    cache[slot] = Some(Arc::clone(&arc));
                    arc
                }
            }
        });
        Label(cached.unwrap_or_else(|_| intern(name)))
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The shared allocation backing this label. Interning makes equal
    /// labels share one allocation, so the address doubles as a cheap
    /// identity key (the codec's string table exploits this).
    pub fn as_arc(&self) -> &Arc<str> {
        &self.0
    }
}

impl Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Label {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        // Interning makes equal labels pointer-equal; the content check
        // only runs for *distinct* names (and for handles that crossed a
        // process boundary, which cannot happen here).
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Label {}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return std::cmp::Ordering::Equal;
        }
        self.0.cmp(&other.0)
    }
}

impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Content hash, NOT pointer hash: partition assignment derives from
        // key hashes and must be identical across processes and runs.
        self.0.hash(state)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

impl From<&String> for Label {
    fn from(s: &String) -> Self {
        Label::new(s)
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Label::new(&s)
    }
}

impl From<&Label> for Label {
    fn from(l: &Label) -> Self {
        l.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_allocations() {
        let a = Label::new("text");
        let b = Label::from("text".to_string());
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, b);
    }

    #[test]
    fn threads_agree_on_pointer_identity() {
        // Each thread has its own cache; the global table keeps them on
        // one allocation per name.
        let names: Vec<String> = (0..1000).map(|i| format!("thread_attr_{i}")).collect();
        let intern_all = |names: &[String]| names.iter().map(|n| Label::new(n)).collect::<Vec<_>>();
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| intern_all(&names));
            let b = s.spawn(|| intern_all(&names));
            (a.join().unwrap(), b.join().unwrap())
        });
        let here = intern_all(&names);
        for ((a, b), c) in a.iter().zip(&b).zip(&here) {
            assert!(Arc::ptr_eq(&a.0, &b.0) && Arc::ptr_eq(&a.0, &c.0), "{a}");
        }
    }

    #[test]
    fn colliding_cache_slot_resolves_both_names() {
        let first = "collide_0".to_string();
        let second = (1..)
            .map(|i| format!("collide_{i}"))
            .find(|n| cache_slot(n) == cache_slot(&first))
            .unwrap();
        let (a, b) = (Label::new(&first), Label::new(&second));
        for _ in 0..4 {
            // Each lookup evicts the other name from the shared slot.
            let (a2, b2) = (Label::new(&first), Label::new(&second));
            assert_eq!(a2.as_str(), first);
            assert_eq!(b2.as_str(), second);
            assert!(Arc::ptr_eq(&a.0, &a2.0) && Arc::ptr_eq(&b.0, &b2.0));
        }
    }

    #[test]
    fn distinct_names_differ() {
        assert_ne!(Label::new("a"), Label::new("b"));
        assert!(Label::new("a") < Label::new("b"));
    }

    #[test]
    fn compares_with_str() {
        let l = Label::new("name");
        assert_eq!(l, "name");
        assert_eq!(l.as_str(), "name");
        assert_eq!(l.len(), 4); // Deref<Target = str>
    }

    #[test]
    fn hash_matches_str_hash() {
        use std::collections::hash_map::DefaultHasher;
        fn h(x: &(impl Hash + ?Sized)) -> u64 {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        }
        // Borrow<str> requires Hash agreement with str.
        assert_eq!(h(&Label::new("k")), h("k"));
    }
}
