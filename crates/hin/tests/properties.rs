//! Property-based tests for the HIN substrate: random networks always
//! produce consistent CSR adjacency and attribute tables.

use genclus_hin::prelude::*;
use proptest::prelude::*;
use rand::Rng;

/// Builds a random 2-type network from a seed and size parameters.
fn random_network(seed: u64, n_a: usize, n_b: usize, n_links: usize) -> HinGraph {
    let mut rng = genclus_stats::seeded_rng(seed);
    let mut s = Schema::new();
    let ta = s.add_object_type("A");
    let tb = s.add_object_type("B");
    let ab = s.add_relation("ab", ta, tb);
    let ba = s.add_relation("ba", tb, ta);
    let aa = s.add_relation("aa", ta, ta);
    let text = s.add_categorical_attribute("text", 16);
    let num = s.add_numerical_attribute("num");
    let mut b = HinBuilder::new(s);
    let a_ids: Vec<_> = (0..n_a)
        .map(|i| b.add_object(ta, format!("a{i}")))
        .collect();
    let b_ids: Vec<_> = (0..n_b)
        .map(|i| b.add_object(tb, format!("b{i}")))
        .collect();
    for _ in 0..n_links {
        let src = a_ids[rng.gen_range(0..n_a)];
        match rng.gen_range(0..3u8) {
            0 => {
                let dst = b_ids[rng.gen_range(0..n_b)];
                b.add_link(src, dst, ab, rng.gen_range(0.1..5.0)).unwrap();
            }
            1 => {
                let s2 = b_ids[rng.gen_range(0..n_b)];
                b.add_link(s2, src, ba, rng.gen_range(0.1..5.0)).unwrap();
            }
            _ => {
                let dst = a_ids[rng.gen_range(0..n_a)];
                b.add_link(src, dst, aa, 1.0).unwrap();
            }
        }
    }
    for &v in &a_ids {
        if rng.gen_bool(0.5) {
            b.add_term_count(v, text, rng.gen_range(0..16), rng.gen_range(1.0..4.0))
                .unwrap();
        }
    }
    for &v in &b_ids {
        if rng.gen_bool(0.5) {
            b.add_numeric(v, num, rng.gen_range(-10.0..10.0)).unwrap();
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Out-CSR and in-CSR contain exactly the same multiset of links.
    #[test]
    fn in_and_out_adjacency_agree(
        seed in any::<u64>(),
        n_a in 1usize..20,
        n_b in 1usize..20,
        n_links in 0usize..100,
    ) {
        let g = random_network(seed, n_a, n_b, n_links);
        prop_assert_eq!(g.n_links(), n_links);

        let mut out_view: Vec<(u32, u32, u16)> = g
            .iter_links()
            .map(|(src, l)| (src.0, l.endpoint.0, l.relation.0))
            .collect();
        let mut in_view: Vec<(u32, u32, u16)> = g
            .objects()
            .flat_map(|v| {
                g.in_links(v)
                    .iter()
                    .map(move |l| (l.endpoint.0, v.0, l.relation.0))
                    .collect::<Vec<_>>()
            })
            .collect();
        out_view.sort_unstable();
        in_view.sort_unstable();
        prop_assert_eq!(out_view, in_view);
    }

    /// Relation endpoint types always satisfy the schema after building.
    #[test]
    fn links_respect_schema(seed in any::<u64>(), n_links in 0usize..60) {
        let g = random_network(seed, 8, 8, n_links);
        for (src, l) in g.iter_links() {
            let def = g.schema().relation(l.relation);
            prop_assert_eq!(g.object_type(src), def.source);
            prop_assert_eq!(g.object_type(l.endpoint), def.target);
            prop_assert!(l.weight > 0.0);
        }
    }

    /// Per-relation counters agree with a full scan, and type partitions
    /// cover every object exactly once.
    #[test]
    fn accounting_is_consistent(seed in any::<u64>(), n_links in 0usize..60) {
        let g = random_network(seed, 6, 9, n_links);
        let total: usize = g
            .schema()
            .relations()
            .map(|(r, _)| g.relation_link_count(r))
            .sum();
        prop_assert_eq!(total, g.n_links());

        let by_type: usize = (0..g.schema().n_object_types())
            .map(|i| g.objects_of_type(ObjectTypeId::from_index(i)).len())
            .sum();
        prop_assert_eq!(by_type, g.n_objects());

        let stats = NetworkStats::of(&g);
        prop_assert_eq!(stats.n_objects, g.n_objects());
        prop_assert_eq!(stats.n_links, g.n_links());
    }

    /// V_X from the attribute table matches a direct has_observations scan.
    #[test]
    fn observed_sets_are_consistent(seed in any::<u64>()) {
        let g = random_network(seed, 10, 10, 30);
        for (a, _) in g.schema().attributes() {
            let table = g.attribute(a);
            let vx = table.objects_with_observations();
            for v in g.objects() {
                prop_assert_eq!(table.has_observations(v), vx.contains(&v));
            }
        }
    }

    /// `append` is one canonical merge: a delta interleaving old-source,
    /// new-source, old→new, and staged→staged links grows a graph that,
    /// read straight after the append, equals ONE from-scratch build of
    /// the same insertion history — serialized bytes, cached weights bit
    /// for bit, per-object link order, one chunk per relation — and whose
    /// adjacency agrees with the in-CSR on the link multiset.
    #[test]
    fn append_is_byte_identical_to_rebuild(
        seed in any::<u64>(),
        n_base in 2usize..10,
        n_new in 1usize..5,
        n_links in 0usize..50,
    ) {
        let mut rng = genclus_stats::seeded_rng(seed);
        let mut s = Schema::new();
        let ta = s.add_object_type("A");
        let tb = s.add_object_type("B");
        let ab = s.add_relation("ab", ta, tb);
        let ba = s.add_relation("ba", tb, ta);
        let aa = s.add_relation("aa", ta, ta);
        let schema = s.clone();
        // The relation joining a (source type, target type) pair, if any.
        let rel_for = |src: ObjectTypeId, tgt: ObjectTypeId| -> Option<RelationId> {
            if src == ta && tgt == tb { Some(ab) }
            else if src == tb && tgt == ta { Some(ba) }
            else if src == ta && tgt == ta { Some(aa) }
            else { None }
        };

        // One shared insertion history: object list (type, appended phase)
        // and link list (source, target, weight), split into a base prefix
        // and a delta suffix.
        let types: Vec<ObjectTypeId> = (0..n_base + n_new)
            .map(|_| if rng.gen_bool(0.5) { ta } else { tb })
            .collect();
        let mut base_links: Vec<(usize, usize, RelationId, f64)> = Vec::new();
        let mut delta_links: Vec<(usize, usize, RelationId, f64)> = Vec::new();
        for i in 0..n_links {
            // The delta phase may link *any* pair of objects — old→old,
            // old→new, new→old, staged→staged; the base phase only links
            // base objects.
            let is_delta = i % 2 == 1;
            let pool = if is_delta { n_base + n_new } else { n_base };
            let src = rng.gen_range(0..pool);
            let tgt = rng.gen_range(0..pool);
            if let Some(r) = rel_for(types[src], types[tgt]) {
                let w = rng.gen_range(0.1..4.0);
                if is_delta {
                    delta_links.push((src, tgt, r, w));
                } else {
                    base_links.push((src, tgt, r, w));
                }
            }
        }

        // Build the base, stage + append the delta.
        let mut b = HinBuilder::new(schema.clone());
        for (i, &t) in types[..n_base].iter().enumerate() {
            b.add_object(t, format!("v{i}"));
        }
        for &(src, tgt, r, w) in &base_links {
            b.add_link(ObjectId(src as u32), ObjectId(tgt as u32), r, w).unwrap();
        }
        let mut grown = b.build().unwrap();
        let mut d = GraphDelta::new(&grown);
        for (i, &t) in types[n_base..].iter().enumerate() {
            d.add_object(t, format!("v{}", n_base + i));
        }
        for &(src, tgt, r, w) in &delta_links {
            d.add_link(ObjectId(src as u32), ObjectId(tgt as u32), r, w).unwrap();
        }
        grown.append(d).unwrap();

        // The same history in one sitting.
        let mut b = HinBuilder::new(schema);
        for (i, &t) in types.iter().enumerate() {
            b.add_object(t, format!("v{i}"));
        }
        for &(src, tgt, r, w) in base_links.iter().chain(&delta_links) {
            b.add_link(ObjectId(src as u32), ObjectId(tgt as u32), r, w).unwrap();
        }
        let fresh = b.build().unwrap();

        let fresh_bytes = {
            let mut out = Vec::new();
            fresh.to_bytes(&mut out);
            out
        };
        let live_bytes = {
            let mut out = Vec::new();
            grown.to_bytes(&mut out);
            out
        };
        prop_assert_eq!(&live_bytes, &fresh_bytes,
            "seed {}: appended graph must serialize like the rebuild", seed);

        // The accessors read exactly what the rebuild's do: cached weights
        // bit for bit, link order, and one segment chunk per relation.
        for (r, _) in grown.schema().relations() {
            prop_assert_eq!(
                grown.relation_total_weight(r).to_bits(),
                fresh.relation_total_weight(r).to_bits(),
                "seed {}: relation {} total weight", seed, r
            );
            for v in grown.objects() {
                prop_assert_eq!(
                    grown.out_weight(v, r).to_bits(),
                    fresh.out_weight(v, r).to_bits()
                );
            }
        }
        for v in grown.objects() {
            prop_assert!(grown.out_links(v).eq(fresh.out_links(v)), "seed {}: {}", seed, v);
            let rels: Vec<RelationId> = grown.out_relation_segments(v).map(|(r, _)| r).collect();
            prop_assert!(rels.windows(2).all(|p| p[0] < p[1]), "one chunk per relation");
        }

        // The adjacency agrees with the in-CSR multiset and the cached
        // aggregates.
        prop_assert_eq!(grown.n_links(), base_links.len() + delta_links.len());
        let mut out_view: Vec<(u32, u32, u16)> = grown
            .iter_links()
            .map(|(src, l)| (src.0, l.endpoint.0, l.relation.0))
            .collect();
        let mut in_view: Vec<(u32, u32, u16)> = grown
            .objects()
            .flat_map(|v| {
                grown
                    .in_links(v)
                    .iter()
                    .map(move |l| (l.endpoint.0, v.0, l.relation.0))
                    .collect::<Vec<_>>()
            })
            .collect();
        out_view.sort_unstable();
        in_view.sort_unstable();
        prop_assert_eq!(out_view, in_view);
        for (r, _) in grown.schema().relations() {
            let scan: f64 = grown
                .iter_links()
                .filter(|(_, l)| l.relation == r)
                .map(|(_, l)| l.weight)
                .sum();
            prop_assert!((grown.relation_total_weight(r) - scan).abs() < 1e-9);
            for v in grown.objects() {
                let w: f64 = grown
                    .out_links_for_relation(v, r)
                    .map(|l| l.weight)
                    .sum();
                prop_assert!((grown.out_weight(v, r) - w).abs() < 1e-12);
            }
        }
    }
}
