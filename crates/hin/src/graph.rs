//! The heterogeneous network: CSR adjacency with per-relation indexes.
//!
//! [`HinGraph`] stores objects with their types and names, directed typed
//! links in CSR form (both out-link and in-link adjacency are materialized at
//! build time), and the attribute observation tables. All algorithm crates
//! treat it as read-only shared state — it is `Sync` and can be borrowed by
//! scoped worker threads during the parallel E-step.
//!
//! Beyond the plain adjacency, the builder materializes **per-relation
//! indexes** so the algorithm crates never scan `|E|` links for per-relation
//! aggregates:
//!
//! * each object's out-link segment is grouped by relation, with a
//!   `(|V| × (|R|+1))` offset table addressing the sub-segments — see
//!   [`HinGraph::out_links_for_relation`] / [`HinGraph::out_relation_segments`];
//! * weighted out-degrees per `(object, relation)` are cached
//!   ([`HinGraph::out_weight`] is O(1));
//! * global per-relation link counts and weight totals are cached
//!   ([`HinGraph::relation_link_count`] / [`HinGraph::relation_total_weight`]
//!   are O(1));
//! * a name → id map makes [`HinGraph::object_by_name`] O(1).
//!
//! Each object's out-link segment is **canonical**: relation-ascending,
//! and within a relation in link insertion order. [`HinGraph::append`]
//! merges a delta's links into that layout directly (see [`crate::delta`]),
//! so a grown graph equals a from-scratch [`crate::builder::HinBuilder`]
//! build of the same history field by field, and every accessor below reads
//! one contiguous slice per object or per `(object, relation)` pair.

use crate::arena::{NameArena, NameIndex};
use crate::attributes::{AttributeData, AttributeStore};
use crate::ids::{AttributeId, ObjectId, ObjectTypeId, RelationId};
use crate::schema::Schema;

/// One directed link as seen from one side of the adjacency.
///
/// In the out-link CSR, `endpoint` is the link *target*; in the in-link CSR
/// it is the link *source*. `relation` and `weight` are the link's type
/// `φ(e)` and weight `w(e)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// The other endpoint.
    pub endpoint: ObjectId,
    /// Link type.
    pub relation: RelationId,
    /// Positive weight `w(e)`.
    pub weight: f64,
}

/// An immutable heterogeneous information network.
///
/// Constructed through [`crate::builder::HinBuilder`], which validates the
/// schema constraints; the graph itself therefore never re-checks them.
#[derive(Debug, Clone)]
pub struct HinGraph {
    pub(crate) schema: Schema,
    pub(crate) obj_types: Vec<ObjectTypeId>,
    /// Interned object names: one contiguous byte arena, `u32`-addressed
    /// (see [`crate::arena`] for the invariants).
    pub(crate) obj_names: NameArena,
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_links: Vec<Link>,
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_links: Vec<Link>,
    pub(crate) attrs: AttributeStore,
    /// First-registration name → object index (ties resolved towards the
    /// earliest object, matching a forward linear scan). Keys live in
    /// `obj_names`; the index stores only ids.
    pub(crate) name_index: NameIndex,
    /// Per-relation sub-segment boundaries of each object's out-link
    /// segment: row `v` (stride `|R|+1`) holds absolute indexes into
    /// `out_links`, so relation `r`'s links of `v` are
    /// `out_links[out_rel_offsets[v·(|R|+1)+r] .. out_rel_offsets[v·(|R|+1)+r+1]]`.
    /// Requires `out_links` segments to be grouped by relation (the builder
    /// guarantees this).
    pub(crate) out_rel_offsets: Vec<u32>,
    /// Cached `Σ w(e)` over out-links of `(v, r)`, stride `|R|`.
    pub(crate) out_rel_weight: Vec<f64>,
    /// Cached number of links per relation.
    pub(crate) rel_counts: Vec<u32>,
    /// Cached `Σ w(e)` per relation.
    pub(crate) rel_weights: Vec<f64>,
}

impl HinGraph {
    /// The schema this network was built against.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of objects `|V|`.
    #[inline]
    pub fn n_objects(&self) -> usize {
        self.obj_types.len()
    }

    /// Number of directed links `|E|`.
    #[inline]
    pub fn n_links(&self) -> usize {
        self.out_links.len()
    }

    /// Type of object `v`.
    #[inline]
    pub fn object_type(&self, v: ObjectId) -> ObjectTypeId {
        self.obj_types[v.index()]
    }

    /// Name of object `v` (may be empty).
    #[inline]
    pub fn object_name(&self, v: ObjectId) -> &str {
        self.obj_names.get(v.index())
    }

    /// The interned name arena (all names, one buffer).
    #[inline]
    pub fn name_arena(&self) -> &NameArena {
        &self.obj_names
    }

    /// Finds an object by name (O(1) hash lookup; with duplicate names the
    /// earliest-added object wins, as a forward scan would).
    pub fn object_by_name(&self, name: &str) -> Option<ObjectId> {
        self.name_index.get(&self.obj_names, name).map(ObjectId)
    }

    /// [`Self::object_by_name`] for untrusted input: a missing name becomes
    /// a [`crate::error::HinError::UnknownName`] carrying the offending
    /// string, so serving layers can reject bad requests with a useful
    /// message instead of panicking or hand-rolling the error.
    pub fn require_object_by_name(&self, name: &str) -> Result<ObjectId, crate::error::HinError> {
        self.object_by_name(name)
            .ok_or_else(|| crate::error::HinError::UnknownName(name.to_string()))
    }

    /// Out-links of `v`: all `e = ⟨v, u⟩`, the links driving `θ_v`'s
    /// neighbor term in the EM update (Eq. 10), grouped by relation.
    #[inline]
    pub fn out_links(&self, v: ObjectId) -> impl Iterator<Item = &Link> {
        self.out_segment(v).iter()
    }

    /// `v`'s whole out-link segment.
    #[inline]
    fn out_segment(&self, v: ObjectId) -> &[Link] {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        &self.out_links[lo..hi]
    }

    /// Number of out-links of `v`.
    #[inline]
    pub fn out_degree(&self, v: ObjectId) -> usize {
        self.out_segment(v).len()
    }

    /// Whether `v` has at least one out-link.
    #[inline]
    pub fn has_out_links(&self, v: ObjectId) -> bool {
        !self.out_segment(v).is_empty()
    }

    /// In-links of `v`: all `e = ⟨u, v⟩`, with `endpoint` = `u`.
    #[inline]
    pub fn in_links(&self, v: ObjectId) -> &[Link] {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        &self.in_links[lo..hi]
    }

    /// Iterates over every object id.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> {
        (0..self.n_objects()).map(ObjectId::from_index)
    }

    /// All objects of type `t`, ascending.
    pub fn objects_of_type(&self, t: ObjectTypeId) -> Vec<ObjectId> {
        self.obj_types
            .iter()
            .enumerate()
            .filter(|&(_i, &ty)| ty == t)
            .map(|(i, &_ty)| ObjectId::from_index(i))
            .collect()
    }

    /// Iterates over every directed link as `(source, link)`, source
    /// ascending, each source's links in canonical order.
    pub fn iter_links(&self) -> impl Iterator<Item = (ObjectId, &Link)> {
        (0..self.n_objects()).flat_map(move |i| {
            let v = ObjectId::from_index(i);
            self.out_links(v).map(move |l| (v, l))
        })
    }

    /// Number of links of relation `r` (O(1), cached at build time).
    #[inline]
    pub fn relation_link_count(&self, r: RelationId) -> usize {
        self.rel_counts[r.index()] as usize
    }

    /// Sum of weights over links of relation `r` (O(1), cached at build
    /// time).
    #[inline]
    pub fn relation_total_weight(&self, r: RelationId) -> f64 {
        self.rel_weights[r.index()]
    }

    /// Out-links of `v` restricted to relation `r` (O(1) segment lookup).
    #[inline]
    pub fn out_links_for_relation(
        &self,
        v: ObjectId,
        r: RelationId,
    ) -> impl Iterator<Item = &Link> {
        let stride = self.schema.n_relations() + 1;
        let base = v.index() * stride + r.index();
        let lo = self.out_rel_offsets[base] as usize;
        let hi = self.out_rel_offsets[base + 1] as usize;
        self.out_links[lo..hi].iter()
    }

    /// The non-empty per-relation chunks of `v`'s out-links, ascending by
    /// relation id, one chunk per relation. This is the grouped view the
    /// EM link term and the strength-learning statistics iterate, with no
    /// per-link branching.
    #[inline]
    pub fn out_relation_segments(
        &self,
        v: ObjectId,
    ) -> impl Iterator<Item = (RelationId, &[Link])> {
        let n_rel = self.schema.n_relations();
        let stride = n_rel + 1;
        let base = v.index() * stride;
        let offsets = &self.out_rel_offsets[base..base + stride];
        (0..n_rel)
            .map(move |r| {
                let links = &self.out_links[offsets[r] as usize..offsets[r + 1] as usize];
                (RelationId::from_index(r), links)
            })
            .filter(|(_, links)| !links.is_empty())
    }

    /// A no-op, kept for callers written against the former segmented
    /// out-adjacency: [`Self::append`] leaves the out-CSR canonical, so
    /// there is nothing to fold.
    pub fn compact(&mut self) {}

    /// Observation table of attribute `a`.
    #[inline]
    pub fn attribute(&self, a: AttributeId) -> &AttributeData {
        self.attrs.table(a)
    }

    /// The full attribute store.
    #[inline]
    pub fn attributes(&self) -> &AttributeStore {
        &self.attrs
    }

    /// Weighted out-degree of `v` restricted to relation `r` (O(1), cached
    /// at build time).
    #[inline]
    pub fn out_weight(&self, v: ObjectId, r: RelationId) -> f64 {
        self.out_rel_weight[v.index() * self.schema.n_relations() + r.index()]
    }

    /// Total weighted degree (in + out, all relations) of `v`; used by
    /// modularity-based baselines.
    pub fn total_degree(&self, v: ObjectId) -> f64 {
        let out: f64 = self.out_links(v).map(|l| l.weight).sum();
        let inn: f64 = self.in_links(v).iter().map(|l| l.weight).sum();
        out + inn
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::HinBuilder;
    use crate::ids::ObjectId;
    use crate::schema::Schema;

    /// Two authors, two papers; a0 writes p0 & p1, a1 writes p1.
    fn toy() -> (crate::graph::HinGraph, [ObjectId; 4]) {
        let mut s = Schema::new();
        let author = s.add_object_type("author");
        let paper = s.add_object_type("paper");
        let write = s.add_relation("write", author, paper);
        let written_by = s.add_relation("written_by", paper, author);
        let mut b = HinBuilder::new(s);
        let a0 = b.add_object(author, "a0");
        let a1 = b.add_object(author, "a1");
        let p0 = b.add_object(paper, "p0");
        let p1 = b.add_object(paper, "p1");
        b.add_link(a0, p0, write, 1.0).unwrap();
        b.add_link(a0, p1, write, 2.0).unwrap();
        b.add_link(a1, p1, write, 1.0).unwrap();
        b.add_link(p0, a0, written_by, 1.0).unwrap();
        b.add_link(p1, a0, written_by, 2.0).unwrap();
        b.add_link(p1, a1, written_by, 1.0).unwrap();
        (b.build().unwrap(), [a0, a1, p0, p1])
    }

    #[test]
    fn adjacency_is_consistent() {
        let (g, [a0, a1, p0, p1]) = toy();
        assert_eq!(g.n_objects(), 4);
        assert_eq!(g.n_links(), 6);
        assert_eq!(g.out_links(a0).count(), 2);
        assert_eq!(g.out_degree(a0), 2);
        assert_eq!(g.out_links(a1).count(), 1);
        assert_eq!(g.in_links(p1).len(), 2);
        assert_eq!(g.in_links(a0).len(), 2);
        // Out-link targets of a0 are the two papers.
        let targets: Vec<_> = g.out_links(a0).map(|l| l.endpoint).collect();
        assert!(targets.contains(&p0) && targets.contains(&p1));
        // In-links mirror out-links: p1's in-links come from a0 and a1.
        let sources: Vec<_> = g.in_links(p1).iter().map(|l| l.endpoint).collect();
        assert!(sources.contains(&a0) && sources.contains(&a1));
    }

    #[test]
    fn per_relation_accounting() {
        let (g, _) = toy();
        let write = g.schema().relation_by_name("write").unwrap();
        let written_by = g.schema().relation_by_name("written_by").unwrap();
        assert_eq!(g.relation_link_count(write), 3);
        assert_eq!(g.relation_total_weight(write), 4.0);
        assert_eq!(g.relation_link_count(written_by), 3);
    }

    #[test]
    fn type_partition_and_names() {
        let (g, [a0, _, p0, _]) = toy();
        let author = g.schema().object_type_by_name("author").unwrap();
        let paper = g.schema().object_type_by_name("paper").unwrap();
        assert_eq!(g.objects_of_type(author).len(), 2);
        assert_eq!(g.objects_of_type(paper).len(), 2);
        assert_eq!(g.object_type(a0), author);
        assert_eq!(g.object_name(p0), "p0");
        assert_eq!(g.object_by_name("a0"), Some(a0));
        assert_eq!(g.object_by_name("ghost"), None);
    }

    #[test]
    fn iter_links_covers_everything_once() {
        let (g, _) = toy();
        assert_eq!(g.iter_links().count(), 6);
        let total: f64 = g.iter_links().map(|(_, l)| l.weight).sum();
        assert_eq!(total, 8.0);
    }

    #[test]
    fn degrees_and_weights() {
        let (g, [a0, ..]) = toy();
        let write = g.schema().relation_by_name("write").unwrap();
        assert_eq!(g.out_weight(a0, write), 3.0);
        // a0: out 1+2, in 1+2 → 6.
        assert_eq!(g.total_degree(a0), 6.0);
    }

    #[test]
    fn relation_segments_partition_the_out_links() {
        let (g, [a0, _, _, p1]) = toy();
        let write = g.schema().relation_by_name("write").unwrap();
        let written_by = g.schema().relation_by_name("written_by").unwrap();
        // a0 writes two papers; it has no written_by out-links.
        assert_eq!(g.out_links_for_relation(a0, write).count(), 2);
        assert_eq!(g.out_links_for_relation(a0, written_by).count(), 0);
        let segs: Vec<_> = g.out_relation_segments(a0).collect();
        assert_eq!(segs.len(), 1, "only non-empty segments are yielded");
        assert_eq!(segs[0].0, write);
        assert_eq!(segs[0].1.len(), 2);
        // p1 has two written_by out-links and nothing else.
        let segs: Vec<_> = g.out_relation_segments(p1).collect();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].0, written_by);
        assert!(segs[0].1.iter().eq(g.out_links(p1)));
        // Segments always concatenate back to the full out segment.
        for v in g.objects() {
            let total: usize = g.out_relation_segments(v).map(|(_, s)| s.len()).sum();
            assert_eq!(total, g.out_links(v).count());
            assert_eq!(total, g.out_degree(v));
        }
    }

    #[test]
    fn cached_weights_match_scans() {
        let (g, _) = toy();
        for (r, _) in g.schema().relations() {
            let count = g.iter_links().filter(|(_, l)| l.relation == r).count();
            let weight: f64 = g
                .iter_links()
                .filter(|(_, l)| l.relation == r)
                .map(|(_, l)| l.weight)
                .sum();
            assert_eq!(g.relation_link_count(r), count);
            assert!((g.relation_total_weight(r) - weight).abs() < 1e-12);
            for v in g.objects() {
                let w: f64 = g
                    .out_links(v)
                    .filter(|l| l.relation == r)
                    .map(|l| l.weight)
                    .sum();
                assert!((g.out_weight(v, r) - w).abs() < 1e-12);
            }
        }
    }
}
