//! Property-based tests of the tracefile algebra and uniqueness criteria.

use classfuzz_coverage::{GlobalCoverage, SuiteIndex, TraceFile, UniquenessCriterion};
use proptest::prelude::*;

fn trace_strategy() -> impl Strategy<Value = TraceFile> {
    (
        proptest::collection::btree_set(0u32..50, 0..20),
        proptest::collection::btree_set((0u32..20, any::<bool>()), 0..15),
    )
        .prop_map(|(stmts, branches)| {
            let mut t = TraceFile::new();
            for s in stmts {
                t.hit_stmt(s);
            }
            for (s, d) in branches {
                t.hit_branch(s, d);
            }
            t
        })
}

proptest! {
    /// ⊕ is commutative, associative, and idempotent (a set union).
    #[test]
    fn merge_is_a_semilattice(
        a in trace_strategy(),
        b in trace_strategy(),
        c in trace_strategy(),
    ) {
        prop_assert_eq!(a.merge(&b), b.merge(&a));
        prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        prop_assert_eq!(a.merge(&a), a.clone());
        // Merging never loses coverage.
        let m = a.merge(&b);
        prop_assert!(m.stats().stmt >= a.stats().stmt.max(b.stats().stmt));
        prop_assert!(m.stats().br >= a.stats().br.max(b.stats().br));
    }

    /// [tr]'s static equality is an equivalence relation consistent with ⊕.
    #[test]
    fn static_equality_properties(a in trace_strategy(), b in trace_strategy()) {
        prop_assert!(a.statically_equal(&a));
        prop_assert_eq!(a.statically_equal(&b), b.statically_equal(&a));
        if a.statically_equal(&b) {
            // Statically equal traces have identical stats and merge to a.
            prop_assert_eq!(a.stats(), b.stats());
            prop_assert_eq!(a.merge(&b), a.clone());
        }
    }

    /// Criterion strength ordering: anything [st] accepts over a suite,
    /// [stbr] also accepts; anything [stbr] accepts, [tr] also accepts.
    #[test]
    fn criterion_strength_chain(traces in proptest::collection::vec(trace_strategy(), 1..25)) {
        let mut st = SuiteIndex::new(UniquenessCriterion::St);
        let mut stbr = SuiteIndex::new(UniquenessCriterion::StBr);
        let mut tr = SuiteIndex::new(UniquenessCriterion::Tr);
        for t in &traces {
            let a_st = st.is_unique(t);
            let a_stbr = stbr.is_unique(t);
            let a_tr = tr.is_unique(t);
            if a_st {
                prop_assert!(a_stbr, "[st]-unique must be [stbr]-unique");
            }
            if a_stbr {
                prop_assert!(a_tr, "[stbr]-unique must be [tr]-unique");
            }
            // Keep all three indexes in sync on the *same* accepted set:
            // insert everywhere whenever the weakest criterion accepts.
            if a_st {
                st.insert(t);
                stbr.insert(t);
                tr.insert(t);
            }
        }
    }

    /// An index never accepts the same trace twice.
    #[test]
    fn no_double_acceptance(traces in proptest::collection::vec(trace_strategy(), 1..20)) {
        for criterion in [
            UniquenessCriterion::St,
            UniquenessCriterion::StBr,
            UniquenessCriterion::Tr,
        ] {
            let mut index = SuiteIndex::new(criterion);
            for t in &traces {
                if index.insert_if_unique(t) {
                    prop_assert!(!index.is_unique(t), "{criterion}: accepted trace still unique");
                    prop_assert!(!index.insert_if_unique(t));
                }
            }
            prop_assert!(index.len() <= traces.len());
        }
    }

    /// `insert_if_unique` is idempotent: offering an accepted (or rejected)
    /// trace again changes nothing — neither the verdict nor the index.
    #[test]
    fn insert_if_unique_is_idempotent(traces in proptest::collection::vec(trace_strategy(), 1..20)) {
        for criterion in [
            UniquenessCriterion::St,
            UniquenessCriterion::StBr,
            UniquenessCriterion::Tr,
        ] {
            let mut index = SuiteIndex::new(criterion);
            for t in &traces {
                index.insert_if_unique(t);
                let snapshot = index.clone();
                // A second offer of any already-seen trace is a no-op.
                prop_assert!(!index.insert_if_unique(t), "{criterion}: re-accepted a trace");
                prop_assert_eq!(&index, &snapshot, "{criterion}: re-offer mutated the index");
            }
        }
    }

    /// Greedy accumulation is monotone and absorbs exactly the new-site
    /// contributions.
    #[test]
    fn greedy_monotonicity(traces in proptest::collection::vec(trace_strategy(), 1..20)) {
        let mut g = GlobalCoverage::new();
        let mut last = g.stats();
        for t in &traces {
            let grew = g.absorb(t);
            let now = g.stats();
            prop_assert!(now.stmt >= last.stmt && now.br >= last.br);
            prop_assert_eq!(grew, now != last, "absorb must report growth exactly");
            last = now;
            // Re-absorbing is a no-op.
            prop_assert!(!g.absorb(t));
            prop_assert_eq!(g.stats(), last);
        }
    }
}
