//! Interned symbols.
//!
//! A [`Sym`] is a dense `u32` naming one symbol of one fact source —
//! a constant, a chase variable, a labelled null, whatever the source
//! stores in its rows. The engine compares and hashes `Sym`s only; what
//! a `Sym` *means* is private to the source that interned it.

use std::hash::Hash;

use crate::fx::FxHashMap;

/// An interned symbol of one fact source.
///
/// `Sym`s from different sources are unrelated; never mix them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

impl Sym {
    /// The symbol as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interning pool mapping source-level symbols to dense [`Sym`]s and
/// back.
#[derive(Debug, Clone)]
pub struct SymPool<T> {
    ids: FxHashMap<T, Sym>,
    items: Vec<T>,
}

impl<T> Default for SymPool<T> {
    fn default() -> Self {
        SymPool {
            ids: FxHashMap::default(),
            items: Vec::new(),
        }
    }
}

impl<T: Eq + Hash + Clone> SymPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        SymPool::default()
    }

    /// Interns `item`, returning its (new or existing) symbol.
    pub fn intern(&mut self, item: &T) -> Sym {
        if let Some(&s) = self.ids.get(item) {
            return s;
        }
        let s = Sym(self.items.len() as u32);
        self.ids.insert(item.clone(), s);
        self.items.push(item.clone());
        s
    }

    /// Looks up an already-interned item.
    pub fn get(&self, item: &T) -> Option<Sym> {
        self.ids.get(item).copied()
    }

    /// The item behind a symbol.
    pub fn resolve(&self, sym: Sym) -> &T {
        &self.items[sym.index()]
    }

    /// Number of interned symbols.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Approximate resident bytes: interned items (shallow) plus the
    /// id map's capacity, costed per entry. An estimate for capacity
    /// planning, not an allocator measurement — heap data behind `T`
    /// (e.g. string contents) is not chased.
    pub fn approx_bytes(&self) -> usize {
        let item = std::mem::size_of::<T>();
        self.items.capacity() * item + self.ids.capacity() * (item + std::mem::size_of::<Sym>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut p: SymPool<String> = SymPool::new();
        let a = p.intern(&"x".to_string());
        let b = p.intern(&"y".to_string());
        assert_ne!(a, b);
        assert_eq!(p.intern(&"x".to_string()), a);
        assert_eq!(p.len(), 2);
        assert_eq!(p.resolve(a), "x");
        assert_eq!(p.get(&"y".to_string()), Some(b));
        assert_eq!(p.get(&"z".to_string()), None);
    }

    #[test]
    fn pool_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SymPool<String>>();
    }
}
