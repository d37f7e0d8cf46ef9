use std::fmt;

/// A set of module indices, stored as a fixed-width bitset.
///
/// Clock-tree nodes carry the set of modules (sinks) in their subtree; a
/// merge is a set union, and "instruction I activates node v" is a bitset
/// intersection test. With module universes in the low thousands (the
/// largest benchmark has 3101 sinks), the word-packed representation keeps
/// these operations at a few dozen machine words.
///
/// ```
/// use gcr_activity::ModuleSet;
///
/// let mut a = ModuleSet::new(100);
/// a.insert(3);
/// a.insert(97);
/// let b = ModuleSet::with_modules(100, [97, 40]);
/// assert!(a.intersects(&b));
/// assert_eq!(a.union(&b).len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ModuleSet {
    num_modules: usize,
    words: Vec<u64>,
}

impl ModuleSet {
    /// Creates an empty set over a universe of `num_modules` modules.
    #[must_use]
    pub fn new(num_modules: usize) -> Self {
        Self {
            num_modules,
            words: vec![0; num_modules.div_ceil(64)],
        }
    }

    /// Creates a set containing the given module indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= num_modules`.
    #[must_use]
    pub fn with_modules<I: IntoIterator<Item = usize>>(num_modules: usize, modules: I) -> Self {
        let mut s = Self::new(num_modules);
        for m in modules {
            s.insert(m);
        }
        s
    }

    /// Size of the module universe (not the cardinality).
    #[must_use]
    pub fn universe(&self) -> usize {
        self.num_modules
    }

    /// Number of modules in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Adds module `m` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `m >= universe()`.
    pub fn insert(&mut self, m: usize) {
        assert!(
            m < self.num_modules,
            "module {m} outside universe {}",
            self.num_modules
        );
        self.words[m / 64] |= 1 << (m % 64);
    }

    /// Whether module `m` is in the set.
    #[must_use]
    pub fn contains(&self, m: usize) -> bool {
        m < self.num_modules && self.words[m / 64] & (1 << (m % 64)) != 0
    }

    /// Whether the two sets share any module.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn intersects(&self, other: &ModuleSet) -> bool {
        self.check_universe(other);
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union_with(&mut self, other: &ModuleSet) {
        self.check_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The union of the two sets.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn union(&self, other: &ModuleSet) -> ModuleSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Iterates over the module indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        set_bits(&self.words)
    }

    fn check_universe(&self, other: &ModuleSet) {
        assert_eq!(
            self.num_modules, other.num_modules,
            "module universes differ ({} vs {})",
            self.num_modules, other.num_modules
        );
    }
}

/// Yields the indices of the set bits of a word-packed bitset row in
/// ascending order: bit `b` of word `w` is index `64·w + b`.
///
/// The one set-bit walk behind [`ModuleSet::iter`], the activation rows
/// [`ActivityTables::enable_stats_for_bits`](crate::ActivityTables::enable_stats_for_bits)
/// prices, and the module rows the routing objectives keep.
pub fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

impl fmt::Debug for ModuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for ModuleSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, m) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "M{}", m + 1)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for ModuleSet {
    /// Collects module indices into a set whose universe is just large
    /// enough to hold the largest index.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let universe = items.iter().max().map_or(0, |&m| m + 1);
        ModuleSet::with_modules(universe, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len() {
        let mut s = ModuleSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert!(!s.contains(500)); // out of range is simply absent
    }

    #[test]
    fn union_and_intersection() {
        let a = ModuleSet::with_modules(200, [1, 100, 199]);
        let b = ModuleSet::with_modules(200, [2, 100]);
        assert!(a.intersects(&b));
        let u = a.union(&b);
        assert_eq!(u.len(), 4);
        let c = ModuleSet::with_modules(200, [3, 4]);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn iter_yields_sorted_indices() {
        let s = ModuleSet::with_modules(300, [250, 3, 64, 65]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![3, 64, 65, 250]);
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: ModuleSet = [5usize, 2, 9].into_iter().collect();
        assert_eq!(s.universe(), 10);
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_range_panics() {
        ModuleSet::new(10).insert(10);
    }

    #[test]
    #[should_panic(expected = "universes differ")]
    fn mismatched_universe_panics() {
        let a = ModuleSet::new(10);
        let b = ModuleSet::new(20);
        let _ = a.intersects(&b);
    }

    #[test]
    fn display_matches_paper_naming() {
        let s = ModuleSet::with_modules(6, [4, 5]);
        assert_eq!(format!("{s}"), "{M5, M6}");
    }
}
