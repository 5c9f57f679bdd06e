//! Incremental growth: appending new objects to a built network.
//!
//! Real attributed networks grow continuously; rebuilding the CSR from
//! scratch for every arriving object would make online fold-in (the
//! `genclus-serve` crate) quadratic over a stream. [`GraphDelta`] batches
//! new objects, their links, and their (possibly incomplete) attribute
//! observations, and [`HinGraph::append`] attaches them to the existing
//! arrays:
//!
//! * the out-link CSR is rewritten in **one canonical merge**: per source
//!   (old or new) and relation, the existing sub-segment followed by that
//!   pair's delta links in insertion order, with the per-relation offsets
//!   and the cached `(object, relation)` and per-relation weights derived
//!   in the builder's order — so the grown graph equals a from-scratch
//!   [`crate::builder::HinBuilder`] build of the same history field by
//!   field, and every reader keeps seeing one chunk per relation;
//! * the in-link CSR is extended with one linear merge pass (a link may
//!   target *any* object, so old in-segments can grow) — a straight copy
//!   with no re-sort and no re-validation of existing links;
//! * attribute tables and the name → id map grow by appending rows.
//!
//! Observations remain restricted to **new** objects (retro-fitting
//! attribute rows of served objects is a model question, not a topology
//! one); link sources and targets may be any object that exists once the
//! delta applies.
//!
//! Validation is all-or-nothing: [`GraphDelta::add_link`] checks both
//! endpoint types eagerly (the delta snapshots the base graph's object
//! types), and [`HinGraph::append`] re-checks every pre-existing endpoint
//! against the live graph *before* mutating — so a failed append leaves
//! the graph exactly as it was, and a delta staged against a different
//! same-shaped graph cannot smuggle a type-invalid link in.

use crate::arena::NameArena;
use crate::attributes::AttributeData;
use crate::error::{check_capacity, HinError};
use crate::graph::{HinGraph, Link};
use crate::ids::{AttributeId, ObjectId, ObjectTypeId, RelationId};
use crate::schema::{AttributeKind, Schema};

/// A batch of new objects, links, and observations destined for an
/// existing [`HinGraph`].
///
/// Created against a specific graph ([`GraphDelta::new`]); object ids it
/// hands out continue that graph's id space, and [`HinGraph::append`]
/// rejects the delta if the graph has changed size in between.
#[derive(Debug, Clone)]
pub struct GraphDelta {
    schema: Schema,
    base_objects: usize,
    /// Object types of the base graph, snapshotted at [`GraphDelta::new`]
    /// so links from pre-existing sources validate eagerly.
    base_types: Vec<ObjectTypeId>,
    new_types: Vec<ObjectTypeId>,
    /// Names of the staged objects, interned into the delta's own arena —
    /// merged into the graph arena in one bulk copy at append time.
    new_names: NameArena,
    /// `(source, link)` pairs in insertion order; sources may be old or new.
    links: Vec<(ObjectId, Link)>,
    /// `(object, attribute, term, count)`; objects are new.
    cat_obs: Vec<(ObjectId, AttributeId, u32, f64)>,
    /// `(object, attribute, value)`; objects are new.
    num_obs: Vec<(ObjectId, AttributeId, f64)>,
    /// First capacity overflow observed while staging; surfaced by
    /// `append` so `add_object` can stay infallible.
    capacity_error: Option<HinError>,
}

impl GraphDelta {
    /// Starts an empty delta against `graph`.
    pub fn new(graph: &HinGraph) -> Self {
        Self {
            schema: graph.schema().clone(),
            base_objects: graph.n_objects(),
            base_types: graph.obj_types.clone(),
            new_types: Vec::new(),
            new_names: NameArena::new(),
            links: Vec::new(),
            cat_obs: Vec::new(),
            num_obs: Vec::new(),
            capacity_error: None,
        }
    }

    /// Starts an empty delta whose base is `graph` **with `applied`
    /// already counted** — the second staging window of a double-buffered
    /// refresh: while `applied` is being appended + re-fitted elsewhere,
    /// new arrivals keep staging here, their ids continuing past
    /// `applied`'s so they stay valid once the grown graph lands. Links
    /// staged here may therefore name base objects *and* `applied`'s
    /// objects (types are validated against `applied`'s staged types).
    ///
    /// Errors with [`HinError::DeltaBaseMismatch`] when `applied` was not
    /// staged against `graph` (wrong base size or schema).
    pub fn new_after(graph: &HinGraph, applied: &GraphDelta) -> Result<Self, HinError> {
        if applied.base_objects != graph.n_objects() || applied.schema != *graph.schema() {
            return Err(HinError::DeltaBaseMismatch {
                expected: applied.base_objects,
                got: graph.n_objects(),
            });
        }
        let mut base_types = graph.obj_types.clone();
        base_types.extend_from_slice(&applied.new_types);
        Ok(Self {
            schema: applied.schema.clone(),
            base_objects: base_types.len(),
            base_types,
            new_types: Vec::new(),
            new_names: NameArena::new(),
            links: Vec::new(),
            cat_obs: Vec::new(),
            num_obs: Vec::new(),
            capacity_error: None,
        })
    }

    /// Absorbs `next` — a window staged via [`Self::new_after`] on top of
    /// this delta — turning the two windows back into one delta against
    /// this delta's base. This is the failure path of a double-buffered
    /// refresh: when the re-fit of the first window dies, the second
    /// window's future base never materializes, and stacking restores a
    /// single delta that can be staged or retried as a whole. Ids need no
    /// rewriting: `next`'s objects were assigned ids continuing this
    /// delta's, which is exactly where they land in the merged delta.
    ///
    /// Errors with [`HinError::DeltaBaseMismatch`] when `next` was not
    /// staged directly on top of this delta.
    pub fn stack(&mut self, next: GraphDelta) -> Result<(), HinError> {
        let boundary = self.base_objects + self.new_types.len();
        if next.base_objects != boundary || next.schema != self.schema {
            return Err(HinError::DeltaBaseMismatch {
                expected: boundary,
                got: next.base_objects,
            });
        }
        self.new_types.extend(next.new_types);
        self.new_names.extend_from(&next.new_names)?;
        self.links.extend(next.links);
        self.cat_obs.extend(next.cat_obs);
        self.num_obs.extend(next.num_obs);
        if self.capacity_error.is_none() {
            self.capacity_error = next.capacity_error;
        }
        Ok(())
    }

    /// Number of new objects staged so far.
    pub fn n_new_objects(&self) -> usize {
        self.new_types.len()
    }

    /// Number of new links staged so far.
    pub fn n_new_links(&self) -> usize {
        self.links.len()
    }

    /// Object count of the graph this delta was created against — the id
    /// space the staged objects continue. A long-lived accumulator (e.g.
    /// the serving layer's refresh queue) can compare this against the live
    /// graph to detect staleness before attempting an append.
    pub fn base_objects(&self) -> usize {
        self.base_objects
    }

    /// Names of the staged objects, in id order (the first entry is object
    /// `base_objects()`, the second `base_objects() + 1`, …).
    pub fn new_object_names(&self) -> impl Iterator<Item = &str> {
        let arena = &self.new_names;
        (0..arena.len()).map(move |i| arena.get(i))
    }

    /// Types of the staged objects, in the same id order as
    /// [`Self::new_object_names`].
    pub fn new_object_types(&self) -> impl Iterator<Item = ObjectTypeId> + '_ {
        self.new_types.iter().copied()
    }

    /// The staged links as `(source, target, relation, weight)`, in
    /// insertion order. Read-only inspection for the serving layer's
    /// crash-recovery path: a replayed delta can be compared against the
    /// uninterrupted original link-for-link, and a recovery log can report
    /// exactly what was rebuilt.
    pub fn staged_links(&self) -> impl Iterator<Item = (ObjectId, ObjectId, RelationId, f64)> + '_ {
        self.links
            .iter()
            .map(|&(s, l)| (s, l.endpoint, l.relation, l.weight))
    }

    /// The staged categorical observations as `(object, attribute, term,
    /// count)`, in insertion order. Companion of [`Self::staged_links`].
    pub fn staged_term_counts(
        &self,
    ) -> impl Iterator<Item = (ObjectId, AttributeId, u32, f64)> + '_ {
        self.cat_obs.iter().copied()
    }

    /// The staged numerical observations as `(object, attribute, value)`,
    /// in insertion order. Companion of [`Self::staged_links`].
    pub fn staged_numeric_obs(&self) -> impl Iterator<Item = (ObjectId, AttributeId, f64)> + '_ {
        self.num_obs.iter().copied()
    }

    /// Whether `v` is one of this delta's new objects.
    fn is_new(&self, v: ObjectId) -> bool {
        (self.base_objects..self.base_objects + self.new_types.len()).contains(&v.index())
    }

    fn check_new(&self, v: ObjectId) -> Result<(), HinError> {
        if self.is_new(v) {
            Ok(())
        } else {
            Err(HinError::NotADeltaObject(v))
        }
    }

    /// Whether `v` will exist once the delta is applied (old or new).
    fn exists(&self, v: ObjectId) -> bool {
        v.index() < self.base_objects + self.new_types.len()
    }

    /// Type of `v`, whether it pre-exists (from the base snapshot) or is
    /// staged by this delta. `None` when `v` does not exist.
    fn object_type_of(&self, v: ObjectId) -> Option<ObjectTypeId> {
        if v.index() < self.base_objects {
            Some(self.base_types[v.index()])
        } else {
            self.new_types.get(v.index() - self.base_objects).copied()
        }
    }

    /// Adds a new object of type `t` and returns its id (continuing the
    /// base graph's id space). The name is interned into the delta's arena;
    /// a capacity overflow is recorded and surfaced by
    /// [`HinGraph::append`] as [`HinError::CapacityExceeded`].
    ///
    /// # Panics
    /// Panics if `t` is not a declared object type (same contract as
    /// [`crate::builder::HinBuilder::add_object`]).
    pub fn add_object(&mut self, t: ObjectTypeId, name: impl AsRef<str>) -> ObjectId {
        assert!(
            t.index() < self.schema.n_object_types(),
            "undeclared object type {t}"
        );
        let id = ObjectId::from_index(self.base_objects + self.new_types.len());
        self.new_types.push(t);
        if let Err(e) = self.new_names.push(name.as_ref()) {
            self.capacity_error.get_or_insert(e);
        }
        id
    }

    /// Stages a link `source → target`. Either endpoint may be a
    /// pre-existing object or one staged by this delta — a new paper can
    /// cite an old one, an old author can be linked to a new paper, and two
    /// staged objects can link each other. Endpoint types are validated
    /// eagerly against the relation definition (pre-existing types come
    /// from the base snapshot taken at [`GraphDelta::new`]; `append`
    /// re-checks them against the live graph before mutating).
    pub fn add_link(
        &mut self,
        source: ObjectId,
        target: ObjectId,
        r: RelationId,
        weight: f64,
    ) -> Result<(), HinError> {
        if !self.exists(source) {
            return Err(HinError::UnknownObject(source));
        }
        if !self.exists(target) {
            return Err(HinError::UnknownObject(target));
        }
        if r.index() >= self.schema.n_relations() {
            return Err(HinError::UnknownRelation(r));
        }
        if !(weight > 0.0 && weight.is_finite()) {
            return Err(HinError::InvalidWeight { weight });
        }
        let def = self.schema.relation(r).clone();
        let source_type = self.object_type_of(source).expect("source exists");
        let target_type = self.object_type_of(target).expect("target exists");
        if (source_type, target_type) != (def.source, def.target) {
            return Err(HinError::EndpointTypeMismatch {
                relation: r,
                expected: (def.source, def.target),
                got: (source_type, target_type),
            });
        }
        self.links.push((
            source,
            Link {
                endpoint: target,
                relation: r,
                weight,
            },
        ));
        Ok(())
    }

    /// Stages `count` occurrences of `term` for new object `v` under
    /// categorical attribute `a`.
    pub fn add_term_count(
        &mut self,
        v: ObjectId,
        a: AttributeId,
        term: u32,
        count: f64,
    ) -> Result<(), HinError> {
        self.check_new(v)?;
        if a.index() >= self.schema.n_attributes() {
            return Err(HinError::UnknownAttribute(a));
        }
        match self.schema.attribute(a).kind {
            AttributeKind::Categorical { vocab_size } => {
                if (term as usize) >= vocab_size {
                    return Err(HinError::TermOutOfRange {
                        attribute: a,
                        term: term as usize,
                        vocab_size,
                    });
                }
            }
            AttributeKind::Numerical => {
                return Err(HinError::AttributeKindMismatch {
                    attribute: a,
                    expected: "term-count",
                });
            }
        }
        if !(count > 0.0 && count.is_finite()) {
            return Err(HinError::NonFiniteObservation { attribute: a });
        }
        self.cat_obs.push((v, a, term, count));
        Ok(())
    }

    /// Stages one numerical observation for new object `v`.
    pub fn add_numeric(&mut self, v: ObjectId, a: AttributeId, value: f64) -> Result<(), HinError> {
        self.check_new(v)?;
        if a.index() >= self.schema.n_attributes() {
            return Err(HinError::UnknownAttribute(a));
        }
        if !matches!(self.schema.attribute(a).kind, AttributeKind::Numerical) {
            return Err(HinError::AttributeKindMismatch {
                attribute: a,
                expected: "numerical",
            });
        }
        if !value.is_finite() {
            return Err(HinError::NonFiniteObservation { attribute: a });
        }
        self.num_obs.push((v, a, value));
        Ok(())
    }
}

impl HinGraph {
    /// Applies `delta`, growing the network in place.
    ///
    /// Validates everything first (base size, schema identity, endpoint
    /// types of every pre-existing endpoint re-checked against the live
    /// graph), so on `Err` the graph is untouched. Work is
    /// `O(|V|·|R| + |E| + d log d)` for `d` new links: one linear merge
    /// each rewrites the out-link and the in-link CSR, and only the delta
    /// is sorted; nothing is re-validated for existing objects. Afterwards
    /// the graph equals a from-scratch build of the same history field by
    /// field (see [`crate::graph`]'s module docs).
    pub fn append(&mut self, delta: GraphDelta) -> Result<(), HinError> {
        if delta.base_objects != self.n_objects() {
            return Err(HinError::DeltaBaseMismatch {
                expected: delta.base_objects,
                got: self.n_objects(),
            });
        }
        // `GraphDelta::new` clones the schema, so a mismatch means the
        // delta was created against a different graph entirely; treat it
        // like a base mismatch.
        if delta.schema != self.schema {
            return Err(HinError::DeltaBaseMismatch {
                expected: delta.base_objects,
                got: self.n_objects(),
            });
        }
        if let Some(e) = delta.capacity_error {
            return Err(e);
        }
        let base = delta.base_objects;
        let n_new = delta.new_types.len();
        let total = base + n_new;
        let n_rel = self.schema.n_relations();

        // Capacity pre-checks: ids, CSR offsets, and arena offsets are u32;
        // reject a graph the layout cannot address before mutating anything.
        let total_ids = check_capacity("objects", total)?;
        check_capacity("links", self.n_links() + delta.links.len())?;
        check_capacity(
            "name-arena bytes",
            self.obj_names.n_bytes() + delta.new_names.n_bytes(),
        )?;

        // Deferred endpoint re-check: every pre-existing endpoint is
        // validated against the *live* graph (the delta validated eagerly
        // against its own base-type snapshot; this guards the
        // equal-size-equal-schema staleness corner where the two differ).
        for &(src, link) in &delta.links {
            let def = self.schema.relation(link.relation);
            let type_of = |v: ObjectId| {
                if v.index() < base {
                    self.obj_types[v.index()]
                } else {
                    delta.new_types[v.index() - base]
                }
            };
            let got = (type_of(src), type_of(link.endpoint));
            if got != (def.source, def.target) {
                return Err(HinError::EndpointTypeMismatch {
                    relation: link.relation,
                    expected: (def.source, def.target),
                    got,
                });
            }
        }

        // ---- mutation starts; everything below is infallible ----

        // Object table, name arena, and name index: the delta arena merges
        // into the graph arena as one bulk byte copy, and the open-addressing
        // index absorbs the new ids without touching name bytes.
        // lint: region(scale-hot)
        self.obj_types.extend_from_slice(&delta.new_types);
        self.obj_names
            .extend_from(&delta.new_names)
            .expect("capacity pre-checked");
        self.name_index.grow_for(&self.obj_names, total);
        for id in base as u32..total_ids {
            self.name_index.insert_first_wins(&self.obj_names, id);
        }
        // lint: end-region

        // Out CSR: one canonical merge. Per source and relation, the
        // existing sub-segment is followed by that pair's delta links in
        // insertion order — the builder's stable per-relation grouping of
        // the same history. A stable sort of the delta by (source, relation)
        // lines the links up for one forward walk. `out_rel_weight`
        // accumulates per link in that order (as the builder's segment sums
        // do) and the new arrays replace the old ones before the in-CSR
        // pass, so at most one spare adjacency is alive at a time.
        let links_in_order = delta.links;
        let mut by_pair: Vec<&(ObjectId, Link)> = links_in_order.iter().collect();
        by_pair.sort_by_key(|(src, link)| (src.index(), link.relation.index()));
        let mut pending = by_pair.into_iter().peekable();
        let stride = n_rel + 1;
        let mut out_links = Vec::with_capacity(self.out_links.len() + links_in_order.len());
        let mut out_offsets = Vec::with_capacity(total + 1);
        let mut out_rel_offsets = Vec::with_capacity(total * stride);
        self.out_rel_weight.resize(total * n_rel, 0.0);
        out_offsets.push(0u32);
        // lint: region(scale-hot)
        for v in 0..total {
            out_rel_offsets.push(out_links.len() as u32);
            for r in 0..n_rel {
                if v < base {
                    let lo = self.out_rel_offsets[v * stride + r] as usize;
                    let hi = self.out_rel_offsets[v * stride + r + 1] as usize;
                    out_links.extend_from_slice(&self.out_links[lo..hi]);
                }
                while let Some((_, link)) =
                    pending.next_if(|(src, link)| src.index() == v && link.relation.index() == r)
                {
                    self.out_rel_weight[v * n_rel + r] += link.weight;
                    self.rel_counts[r] += 1;
                    out_links.push(*link);
                }
                out_rel_offsets.push(out_links.len() as u32);
            }
            out_offsets.push(out_links.len() as u32);
        }
        // lint: end-region
        self.out_links = out_links;
        self.out_offsets = out_offsets;
        self.out_rel_offsets = out_rel_offsets;
        // Per-relation totals in the builder's order (ascending object,
        // then relation): an in-place `+=` per link would re-associate the
        // float sum and drift from a rebuild in the last bits.
        self.rel_weights.fill(0.0);
        for v in 0..total {
            for (r, w) in self.rel_weights.iter_mut().enumerate() {
                *w += self.out_rel_weight[v * n_rel + r];
            }
        }

        // In CSR: one merge pass. Count the new in-links per target, then
        // rebuild the flat array by copying each old segment and appending
        // that target's new arrivals (insertion order — exactly what a
        // stable counting sort over old-then-new links would produce).
        let mut extra = vec![0u32; total];
        for &(_, link) in &links_in_order {
            extra[link.endpoint.index()] += 1;
        }
        let mut in_links = Vec::with_capacity(self.n_links());
        let mut in_offsets = Vec::with_capacity(total + 1);
        in_offsets.push(0u32);
        // Per-target write positions for the appended entries.
        let mut cursor = vec![0u32; total];
        for v in 0..total {
            let old = if v < base {
                let lo = self.in_offsets[v] as usize;
                let hi = self.in_offsets[v + 1] as usize;
                &self.in_links[lo..hi]
            } else {
                &[]
            };
            in_links.extend_from_slice(old);
            cursor[v] = in_links.len() as u32;
            // Reserve the slots; filled in the scatter pass below.
            in_links.extend(std::iter::repeat_n(
                Link {
                    endpoint: ObjectId(0),
                    relation: RelationId(0),
                    weight: 0.0,
                },
                extra[v] as usize,
            ));
            in_offsets.push(in_links.len() as u32);
        }
        // Scatter in link *insertion* order — matching build_csr's stable
        // counting sort, so a later full rebuild would produce these exact
        // bytes.
        for &(src, link) in &links_in_order {
            let slot = &mut cursor[link.endpoint.index()];
            in_links[*slot as usize] = Link {
                endpoint: src,
                relation: link.relation,
                weight: link.weight,
            };
            *slot += 1;
        }
        self.in_links = in_links;
        self.in_offsets = in_offsets;

        // Attribute tables: observations are restricted to *new* objects,
        // so each CSR table grows by exactly `n_new` tail rows. Stage the
        // rows delta-side (small, delta-sized scratch), sort/merge
        // categorical rows like the builder, then extend the flat arrays.
        for (ai, table) in self.attrs.tables.iter_mut().enumerate() {
            match table {
                AttributeData::Categorical { .. } => {
                    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_new];
                    for &(v, a, term, count) in &delta.cat_obs {
                        if a.index() == ai {
                            rows[v.index() - base].push((term, count));
                        }
                    }
                    for row in &mut rows {
                        row.sort_by_key(|&(t, _)| t);
                        row.dedup_by(|later, earlier| {
                            if later.0 == earlier.0 {
                                earlier.1 += later.1;
                                true
                            } else {
                                false
                            }
                        });
                    }
                    for row in &rows {
                        table.push_categorical_row(row);
                    }
                }
                AttributeData::Numerical { .. } => {
                    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); n_new];
                    for &(v, a, value) in &delta.num_obs {
                        if a.index() == ai {
                            rows[v.index() - base].push(value);
                        }
                    }
                    for row in &rows {
                        table.push_numerical_row(row);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HinBuilder;

    /// Base network: 2 authors, 2 papers, write/written_by, a text and a
    /// year attribute.
    fn base() -> HinGraph {
        let mut s = Schema::new();
        let a = s.add_object_type("author");
        let p = s.add_object_type("paper");
        let w = s.add_relation("write", a, p);
        let wb = s.add_relation("written_by", p, a);
        let text = s.add_categorical_attribute("text", 6);
        let _year = s.add_numerical_attribute("year");
        let mut b = HinBuilder::new(s);
        let a0 = b.add_object(a, "a0");
        let a1 = b.add_object(a, "a1");
        let p0 = b.add_object(p, "p0");
        let p1 = b.add_object(p, "p1");
        b.add_link_pair(a0, p0, w, wb, 1.0).unwrap();
        b.add_link_pair(a1, p1, w, wb, 2.0).unwrap();
        b.add_terms(p0, text, &[1, 4]).unwrap();
        b.build().unwrap()
    }

    /// Rebuilding from scratch with the same insertion order must produce
    /// exactly the appended graph — the gold standard for `append`.
    fn rebuilt_equivalent(g: &HinGraph) -> Vec<u8> {
        let mut bytes = Vec::new();
        g.to_bytes(&mut bytes);
        bytes
    }

    #[test]
    fn append_matches_full_rebuild() {
        let mut g = base();
        let schema = g.schema().clone();
        let author = schema.object_type_by_name("author").unwrap();
        let paper = schema.object_type_by_name("paper").unwrap();
        let w = schema.relation_by_name("write").unwrap();
        let wb = schema.relation_by_name("written_by").unwrap();
        let text = schema.attribute_by_name("text").unwrap();
        let year = schema.attribute_by_name("year").unwrap();

        let mut d = GraphDelta::new(&g);
        let a2 = d.add_object(author, "a2");
        let p2 = d.add_object(paper, "p2");
        d.add_link(a2, ObjectId(2), w, 0.5).unwrap(); // a2 → old p0
        d.add_link(a2, p2, w, 1.5).unwrap(); // a2 → new p2
        d.add_link(p2, ObjectId(0), wb, 1.5).unwrap(); // new p2 → old a0
        d.add_term_count(p2, text, 4, 2.0).unwrap();
        d.add_term_count(p2, text, 1, 1.0).unwrap();
        d.add_term_count(p2, text, 4, 1.0).unwrap(); // merges with first
        d.add_numeric(p2, year, 2014.0).unwrap();
        g.append(d).unwrap();

        // Same network built from scratch in one go.
        let mut b = HinBuilder::new(schema);
        let a0 = b.add_object(author, "a0");
        let _a1 = b.add_object(author, "a1");
        let p0 = b.add_object(paper, "p0");
        let p1 = b.add_object(paper, "p1");
        b.add_link_pair(a0, p0, w, wb, 1.0).unwrap();
        b.add_link_pair(ObjectId(1), p1, w, wb, 2.0).unwrap();
        b.add_terms(p0, text, &[1, 4]).unwrap();
        let a2 = b.add_object(author, "a2");
        let p2 = b.add_object(paper, "p2");
        b.add_link(a2, p0, w, 0.5).unwrap();
        b.add_link(a2, p2, w, 1.5).unwrap();
        b.add_link(p2, a0, wb, 1.5).unwrap();
        b.add_term_count(p2, text, 4, 2.0).unwrap();
        b.add_term_count(p2, text, 1, 1.0).unwrap();
        b.add_term_count(p2, text, 4, 1.0).unwrap();
        b.add_numeric(p2, year, 2014.0).unwrap();
        let fresh = b.build().unwrap();

        assert_eq!(
            rebuilt_equivalent(&g),
            rebuilt_equivalent(&fresh),
            "append must be byte-identical to a full rebuild"
        );
        // Spot-check the derived state on the appended graph.
        assert_eq!(g.n_objects(), 6);
        assert_eq!(g.n_links(), 7);
        assert_eq!(g.object_by_name("p2"), Some(p2));
        assert_eq!(g.out_links(a2).count(), 2);
        assert_eq!(g.out_weight(a2, w), 2.0);
        assert_eq!(g.in_links(p0).len(), 2, "old p0 gained an in-link");
        assert_eq!(g.attribute(text).term_counts(p2), &[(1, 1.0), (4, 3.0)]);
        assert_eq!(g.attribute(year).values(p2), &[2014.0]);
    }

    #[test]
    fn append_matches_rebuild_with_interleaved_link_order() {
        // Regression: the in-CSR scatter must follow link *insertion*
        // order, not source-ascending order — here the later-added object
        // p2's link to a0 is staged before a2's links, and two new objects
        // target the same old object so the in-segment order is visible.
        let mut g = base();
        let schema = g.schema().clone();
        let author = schema.object_type_by_name("author").unwrap();
        let paper = schema.object_type_by_name("paper").unwrap();
        let w = schema.relation_by_name("write").unwrap();
        let wb = schema.relation_by_name("written_by").unwrap();

        let mut d = GraphDelta::new(&g);
        let a2 = d.add_object(author, "a2");
        let p2 = d.add_object(paper, "p2");
        d.add_link(p2, ObjectId(0), wb, 3.0).unwrap(); // higher-id source first
        d.add_link(a2, ObjectId(2), w, 0.5).unwrap();
        d.add_link(a2, ObjectId(3), w, 1.5).unwrap();
        g.append(d).unwrap();

        let mut b = HinBuilder::new(schema);
        let a0 = b.add_object(author, "a0");
        let _a1 = b.add_object(author, "a1");
        let p0 = b.add_object(paper, "p0");
        let p1 = b.add_object(paper, "p1");
        b.add_link_pair(a0, p0, w, wb, 1.0).unwrap();
        b.add_link_pair(ObjectId(1), p1, w, wb, 2.0).unwrap();
        let text = g.schema().attribute_by_name("text").unwrap();
        b.add_terms(p0, text, &[1, 4]).unwrap();
        let a2 = b.add_object(author, "a2");
        let p2 = b.add_object(paper, "p2");
        b.add_link(p2, a0, wb, 3.0).unwrap();
        b.add_link(a2, p0, w, 0.5).unwrap();
        b.add_link(a2, p1, w, 1.5).unwrap();
        let fresh = b.build().unwrap();

        assert_eq!(
            rebuilt_equivalent(&g),
            rebuilt_equivalent(&fresh),
            "insertion-order-interleaved append must still match a rebuild"
        );
    }

    #[test]
    fn codec_load_then_append_then_resave_matches_scratch_build() {
        // Cross-layer round trip: a graph that went through the byte codec
        // must accept a delta and re-serialize byte-identically to the same
        // network built from scratch in one sitting — i.e. the codec
        // rebuilds *every* derived structure (per-relation indexes, weight
        // caches, name map) exactly as the builder made them, and `append`
        // extends the decoded arrays exactly as it extends built ones.
        let original = base();
        let mut bytes = Vec::new();
        original.to_bytes(&mut bytes);
        let mut reader = genclus_stats::bytesio::ByteReader::new(&bytes);
        let mut loaded = HinGraph::from_bytes(&mut reader).expect("codec round trip");

        let schema = loaded.schema().clone();
        let author = schema.object_type_by_name("author").unwrap();
        let paper = schema.object_type_by_name("paper").unwrap();
        let w = schema.relation_by_name("write").unwrap();
        let wb = schema.relation_by_name("written_by").unwrap();
        let text = schema.attribute_by_name("text").unwrap();
        let year = schema.attribute_by_name("year").unwrap();

        let mut d = GraphDelta::new(&loaded);
        assert_eq!(d.base_objects(), 4);
        let a2 = d.add_object(author, "a2");
        let p2 = d.add_object(paper, "p2");
        assert_eq!(d.new_object_names().collect::<Vec<_>>(), ["a2", "p2"]);
        d.add_link(a2, ObjectId(2), w, 0.5).unwrap();
        d.add_link(p2, ObjectId(1), wb, 2.5).unwrap();
        d.add_term_count(p2, text, 3, 2.0).unwrap();
        d.add_numeric(p2, year, 2012.0).unwrap();
        loaded.append(d).unwrap();

        let mut b = HinBuilder::new(schema);
        let a0 = b.add_object(author, "a0");
        let a1 = b.add_object(author, "a1");
        let p0 = b.add_object(paper, "p0");
        let p1 = b.add_object(paper, "p1");
        b.add_link_pair(a0, p0, w, wb, 1.0).unwrap();
        b.add_link_pair(a1, p1, w, wb, 2.0).unwrap();
        b.add_terms(p0, text, &[1, 4]).unwrap();
        let a2 = b.add_object(author, "a2");
        let p2 = b.add_object(paper, "p2");
        b.add_link(a2, p0, w, 0.5).unwrap();
        b.add_link(p2, a1, wb, 2.5).unwrap();
        b.add_term_count(p2, text, 3, 2.0).unwrap();
        b.add_numeric(p2, year, 2012.0).unwrap();
        let fresh = b.build().unwrap();

        assert_eq!(
            rebuilt_equivalent(&loaded),
            rebuilt_equivalent(&fresh),
            "codec-loaded graphs must append byte-identically to built ones"
        );
        // And the re-saved bytes load again to the same object count/name
        // map (the name map is rebuilt on load, so this exercises it on an
        // appended graph).
        let resaved = rebuilt_equivalent(&loaded);
        let mut r2 = genclus_stats::bytesio::ByteReader::new(&resaved);
        let reloaded = HinGraph::from_bytes(&mut r2).expect("appended graph round trip");
        assert_eq!(reloaded.n_objects(), 6);
        assert_eq!(reloaded.object_by_name("p2"), Some(ObjectId(5)));
    }

    #[test]
    fn delta_rejects_bad_operations() {
        let g = base();
        let author = g.schema().object_type_by_name("author").unwrap();
        let w = g.schema().relation_by_name("write").unwrap();
        let wb = g.schema().relation_by_name("written_by").unwrap();
        let text = g.schema().attribute_by_name("text").unwrap();
        let year = g.schema().attribute_by_name("year").unwrap();
        let mut d = GraphDelta::new(&g);
        let a2 = d.add_object(author, "a2");
        // Links may originate at pre-existing objects now …
        d.add_link(ObjectId(0), ObjectId(2), w, 1.0).unwrap();
        // … but both endpoints must exist.
        assert!(matches!(
            d.add_link(ObjectId(99), ObjectId(2), w, 1.0),
            Err(HinError::UnknownObject(_))
        ));
        assert!(matches!(
            d.add_link(a2, ObjectId(99), w, 1.0),
            Err(HinError::UnknownObject(_))
        ));
        // Wrong source type for the relation (new and old sources alike —
        // old endpoint types are validated eagerly from the base snapshot).
        assert!(matches!(
            d.add_link(a2, ObjectId(0), wb, 1.0),
            Err(HinError::EndpointTypeMismatch { .. })
        ));
        assert!(matches!(
            d.add_link(ObjectId(2), ObjectId(0), w, 1.0),
            Err(HinError::EndpointTypeMismatch { .. })
        ));
        // Wrong *target* type with an old target.
        assert!(matches!(
            d.add_link(a2, ObjectId(1), w, 1.0),
            Err(HinError::EndpointTypeMismatch { .. })
        ));
        // Bad weight.
        assert!(matches!(
            d.add_link(a2, ObjectId(2), w, 0.0),
            Err(HinError::InvalidWeight { .. })
        ));
        // Observations only on new objects, with kind/vocab checks.
        assert!(matches!(
            d.add_numeric(ObjectId(0), year, 1.0),
            Err(HinError::NotADeltaObject(_))
        ));
        assert!(matches!(
            d.add_term_count(a2, text, 99, 1.0),
            Err(HinError::TermOutOfRange { .. })
        ));
        assert!(matches!(
            d.add_term_count(a2, year, 0, 1.0),
            Err(HinError::AttributeKindMismatch { .. })
        ));
        assert!(matches!(
            d.add_numeric(a2, text, 1.0),
            Err(HinError::AttributeKindMismatch { .. })
        ));
    }

    #[test]
    fn stale_delta_is_rejected_and_graph_untouched() {
        let mut g = base();
        let author = g.schema().object_type_by_name("author").unwrap();
        let d_stale = GraphDelta::new(&g);
        // Grow the graph out from under the stale delta.
        let mut d = GraphDelta::new(&g);
        d.add_object(author, "a2");
        g.append(d).unwrap();
        let before = rebuilt_equivalent(&g);
        assert!(matches!(
            g.append(d_stale),
            Err(HinError::DeltaBaseMismatch { .. })
        ));
        assert_eq!(rebuilt_equivalent(&g), before);
    }

    #[test]
    fn deferred_endpoint_check_leaves_graph_untouched_on_error() {
        // The staleness corner the deferred re-check exists for: two graphs
        // with the same schema and object count but *swapped type layout*.
        // A delta staged against one validates eagerly from its own base
        // snapshot, so only the append-time re-check against the live graph
        // can catch the mismatch.
        let mut s = Schema::new();
        let a = s.add_object_type("author");
        let p = s.add_object_type("paper");
        let w = s.add_relation("write", a, p);
        let mut b1 = HinBuilder::new(s.clone());
        b1.add_object(a, "x0");
        b1.add_object(p, "x1");
        let g1 = b1.build().unwrap();
        let mut b2 = HinBuilder::new(s);
        b2.add_object(p, "y0"); // types swapped relative to g1
        b2.add_object(a, "y1");
        let mut g2 = b2.build().unwrap();

        let mut d = GraphDelta::new(&g1);
        d.add_link(ObjectId(0), ObjectId(1), w, 1.0).unwrap(); // valid on g1
        let before = rebuilt_equivalent(&g2);
        assert!(matches!(
            g2.append(d),
            Err(HinError::EndpointTypeMismatch { .. })
        ));
        assert_eq!(
            rebuilt_equivalent(&g2),
            before,
            "failed append must not mutate"
        );
    }

    #[test]
    fn old_source_links_merge_into_the_canonical_csr() {
        let mut g = base();
        let schema = g.schema().clone();
        let author = schema.object_type_by_name("author").unwrap();
        let paper = schema.object_type_by_name("paper").unwrap();
        let w = schema.relation_by_name("write").unwrap();
        let wb = schema.relation_by_name("written_by").unwrap();

        // Every link class at once: old→old, old→new, new→old, and
        // staged→staged, interleaved in one delta.
        let mut d = GraphDelta::new(&g);
        let a2 = d.add_object(author, "a2");
        let p2 = d.add_object(paper, "p2");
        d.add_link(ObjectId(0), ObjectId(3), w, 0.25).unwrap(); // old a0 → old p1
        d.add_link(a2, ObjectId(2), w, 0.5).unwrap(); // new a2 → old p0
        d.add_link(ObjectId(1), p2, w, 0.75).unwrap(); // old a1 → new p2
        d.add_link(a2, p2, w, 1.25).unwrap(); // staged → staged
        d.add_link(p2, ObjectId(0), wb, 1.5).unwrap(); // new p2 → old a0
        g.append(d).unwrap();

        // The old sources' segments grew in place, and every accessor sees it.
        assert_eq!(g.n_links(), 4 + 5);
        let a0 = ObjectId(0);
        assert_eq!(g.out_links(a0).count(), 2, "a0's base link + the new one");
        assert_eq!(g.out_degree(a0), 2);
        assert!(g.has_out_links(a0));
        assert_eq!(g.out_weight(a0, w), 1.0 + 0.25);
        assert_eq!(g.relation_link_count(w), 2 + 4);
        // Canonical per-relation order: existing links before the delta's.
        let weights: Vec<f64> = g.out_links_for_relation(a0, w).map(|l| l.weight).collect();
        assert_eq!(weights, vec![1.0, 0.25]);
        // One chunk per relation, and the chunks tile the out-links.
        let segs: Vec<_> = g.out_relation_segments(a0).collect();
        assert_eq!(segs.len(), 1);
        assert_eq!((segs[0].0, segs[0].1.len()), (w, 2));
        for v in g.objects() {
            let total: usize = g.out_relation_segments(v).map(|(_, s)| s.len()).sum();
            assert_eq!(total, g.out_degree(v));
        }
        // In-CSR grew for the old targets.
        assert_eq!(g.in_links(ObjectId(3)).len(), 2, "old p1 gained an in-link");

        // Identical to the same network built from scratch in one go.
        let mut b = HinBuilder::new(schema);
        let a0 = b.add_object(author, "a0");
        let a1 = b.add_object(author, "a1");
        let p0 = b.add_object(paper, "p0");
        let p1 = b.add_object(paper, "p1");
        b.add_link_pair(a0, p0, w, wb, 1.0).unwrap();
        b.add_link_pair(a1, p1, w, wb, 2.0).unwrap();
        let text = g.schema().attribute_by_name("text").unwrap();
        b.add_terms(p0, text, &[1, 4]).unwrap();
        let a2 = b.add_object(author, "a2");
        let p2 = b.add_object(paper, "p2");
        b.add_link(a0, p1, w, 0.25).unwrap();
        b.add_link(a2, p0, w, 0.5).unwrap();
        b.add_link(a1, p2, w, 0.75).unwrap();
        b.add_link(a2, p2, w, 1.25).unwrap();
        b.add_link(p2, a0, wb, 1.5).unwrap();
        let fresh = b.build().unwrap();
        assert_eq!(
            rebuilt_equivalent(&g),
            rebuilt_equivalent(&fresh),
            "the appended graph must serialize byte-identically to a rebuild"
        );
    }

    #[test]
    fn repeated_appends_turn_earlier_arrivals_into_old_sources() {
        // An object appended in round 1 is a pre-existing source in round 2:
        // its segment grows in the merge, and the final bytes still match a
        // single from-scratch build.
        let mut g = base();
        let schema = g.schema().clone();
        let author = schema.object_type_by_name("author").unwrap();
        let paper = schema.object_type_by_name("paper").unwrap();
        let w = schema.relation_by_name("write").unwrap();

        let mut d1 = GraphDelta::new(&g);
        let a2 = d1.add_object(author, "a2");
        d1.add_link(a2, ObjectId(2), w, 0.5).unwrap();
        g.append(d1).unwrap();

        let mut d2 = GraphDelta::new(&g);
        let p2 = d2.add_object(paper, "p2");
        d2.add_link(a2, p2, w, 0.75).unwrap(); // a2 is old now
        d2.add_link(ObjectId(0), p2, w, 1.25).unwrap(); // so is a0
        g.append(d2).unwrap();

        assert_eq!(g.out_links(a2).count(), 2);
        assert_eq!(g.out_weight(a2, w), 0.5 + 0.75);

        let mut b = HinBuilder::new(schema);
        let a0 = b.add_object(author, "a0");
        let a1 = b.add_object(author, "a1");
        let p0 = b.add_object(paper, "p0");
        let p1 = b.add_object(paper, "p1");
        let wb = g.schema().relation_by_name("written_by").unwrap();
        b.add_link_pair(a0, p0, w, wb, 1.0).unwrap();
        b.add_link_pair(a1, p1, w, wb, 2.0).unwrap();
        let text = g.schema().attribute_by_name("text").unwrap();
        b.add_terms(p0, text, &[1, 4]).unwrap();
        let a2 = b.add_object(author, "a2");
        b.add_link(a2, p0, w, 0.5).unwrap();
        let p2 = b.add_object(paper, "p2");
        b.add_link(a2, p2, w, 0.75).unwrap();
        b.add_link(a0, p2, w, 1.25).unwrap();
        let fresh = b.build().unwrap();
        assert_eq!(rebuilt_equivalent(&g), rebuilt_equivalent(&fresh));
    }

    #[test]
    fn stacked_windows_append_in_sequence_or_merged() {
        // Double-buffered staging: window 2 is created via `new_after`
        // while window 1 is "in flight". Applying w1 then w2 (the success
        // path), or `stack`ing w2 back onto w1 and applying once (the
        // failure path), must both equal a single-window staging.
        let build = |two_appends: bool, merged: bool| -> Vec<u8> {
            let mut g = base();
            let author = g.schema().object_type_by_name("author").unwrap();
            let paper = g.schema().object_type_by_name("paper").unwrap();
            let w = g.schema().relation_by_name("write").unwrap();
            let year = g.schema().attribute_by_name("year").unwrap();
            let mut w1 = GraphDelta::new(&g);
            let a2 = w1.add_object(author, "a2");
            w1.add_link(a2, ObjectId(2), w, 0.5).unwrap();
            let mut w2 = GraphDelta::new_after(&g, &w1).unwrap();
            assert_eq!(w2.base_objects(), 5);
            let p2 = w2.add_object(paper, "p2");
            // Window-2 links may cite base objects AND window-1 objects.
            w2.add_link(a2, p2, w, 0.75).unwrap();
            w2.add_link(ObjectId(0), p2, w, 1.25).unwrap();
            w2.add_numeric(p2, year, 2012.0).unwrap();
            if two_appends {
                g.append(w1).unwrap();
                g.append(w2).unwrap();
            } else if merged {
                w1.stack(w2).unwrap();
                assert_eq!(w1.n_new_objects(), 2);
                assert_eq!(w1.n_new_links(), 3);
                g.append(w1).unwrap();
            } else {
                // Single-window reference staging.
                let mut d = GraphDelta::new(&g);
                let a2 = d.add_object(author, "a2");
                d.add_link(a2, ObjectId(2), w, 0.5).unwrap();
                let p2 = d.add_object(paper, "p2");
                d.add_link(a2, p2, w, 0.75).unwrap();
                d.add_link(ObjectId(0), p2, w, 1.25).unwrap();
                d.add_numeric(p2, year, 2012.0).unwrap();
                g.append(d).unwrap();
            }
            rebuilt_equivalent(&g)
        };
        let reference = build(false, false);
        assert_eq!(build(true, false), reference, "w1 then w2 appends");
        assert_eq!(build(false, true), reference, "stacked merge append");
    }

    #[test]
    fn stacked_window_validates_against_inflight_types() {
        let g = base();
        let author = g.schema().object_type_by_name("author").unwrap();
        let w = g.schema().relation_by_name("write").unwrap();
        let mut w1 = GraphDelta::new(&g);
        let a2 = w1.add_object(author, "a2");
        let mut w2 = GraphDelta::new_after(&g, &w1).unwrap();
        // a2 is an *author* per window 1's staged types: it cannot be the
        // target of `write` (author → paper).
        let a3 = w2.add_object(author, "a3");
        assert!(matches!(
            w2.add_link(a3, a2, w, 1.0),
            Err(HinError::EndpointTypeMismatch { .. })
        ));
        // But it is a valid source.
        w2.add_link(a2, ObjectId(2), w, 1.0).unwrap();
    }

    #[test]
    fn mismatched_windows_are_rejected() {
        let mut g = base();
        let author = g.schema().object_type_by_name("author").unwrap();
        let mut w1 = GraphDelta::new(&g);
        w1.add_object(author, "a2");
        // `new_after` demands the in-flight window be staged against the
        // live graph …
        let mut grown = g.clone();
        let mut d = GraphDelta::new(&grown);
        d.add_object(author, "ax");
        grown.append(d).unwrap();
        assert!(matches!(
            GraphDelta::new_after(&grown, &w1),
            Err(HinError::DeltaBaseMismatch { .. })
        ));
        // … and `stack` demands the next window sit exactly on top.
        let not_on_top = GraphDelta::new(&g);
        assert!(matches!(
            w1.stack(not_on_top),
            Err(HinError::DeltaBaseMismatch { .. })
        ));
        let w2 = GraphDelta::new_after(&g, &w1).unwrap();
        let mut w1_shrunk = GraphDelta::new(&g);
        assert!(matches!(
            w1_shrunk.stack(w2),
            Err(HinError::DeltaBaseMismatch { .. })
        ));
        // A well-formed stack still works afterwards.
        let w2 = GraphDelta::new_after(&g, &w1).unwrap();
        w1.stack(w2).unwrap();
        g.append(w1).unwrap();
        assert_eq!(g.n_objects(), 5);
    }

    #[test]
    fn staged_inspection_iterators_report_insertion_order() {
        let g = base();
        let author = g.schema().object_type_by_name("author").unwrap();
        let paper = g.schema().object_type_by_name("paper").unwrap();
        let w = g.schema().relation_by_name("write").unwrap();
        let text = g.schema().attribute_by_name("text").unwrap();
        let year = g.schema().attribute_by_name("year").unwrap();
        let mut d = GraphDelta::new(&g);
        let a2 = d.add_object(author, "a2");
        let p2 = d.add_object(paper, "p2");
        d.add_link(
            p2,
            ObjectId(0),
            g.schema().relation_by_name("written_by").unwrap(),
            3.0,
        )
        .unwrap();
        d.add_link(a2, ObjectId(2), w, 0.5).unwrap();
        d.add_term_count(p2, text, 4, 2.0).unwrap();
        d.add_numeric(p2, year, 2012.0).unwrap();
        let links: Vec<_> = d.staged_links().collect();
        assert_eq!(links.len(), 2, "insertion order, sources old and new");
        assert_eq!(links[0].0, p2);
        assert_eq!((links[1].0, links[1].1, links[1].3), (a2, ObjectId(2), 0.5));
        assert_eq!(
            d.staged_term_counts().collect::<Vec<_>>(),
            vec![(p2, text, 4, 2.0)]
        );
        assert_eq!(
            d.staged_numeric_obs().collect::<Vec<_>>(),
            vec![(p2, year, 2012.0)]
        );
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let mut g = base();
        let before = rebuilt_equivalent(&g);
        let d = GraphDelta::new(&g);
        g.append(d).unwrap();
        assert_eq!(rebuilt_equivalent(&g), before);
    }

    #[test]
    fn repeated_appends_compose() {
        let mut g = base();
        let author = g.schema().object_type_by_name("author").unwrap();
        let paper = g.schema().object_type_by_name("paper").unwrap();
        let w = g.schema().relation_by_name("write").unwrap();
        for i in 0..5 {
            let mut d = GraphDelta::new(&g);
            let a = d.add_object(author, format!("extra-a{i}"));
            let p = d.add_object(paper, format!("extra-p{i}"));
            d.add_link(a, p, w, 1.0 + i as f64).unwrap();
            g.append(d).unwrap();
        }
        assert_eq!(g.n_objects(), 4 + 10);
        assert_eq!(g.n_links(), 4 + 5);
        // The cached per-relation totals kept up.
        assert_eq!(g.relation_link_count(w), 2 + 5);
        let expect: f64 = 1.0 + 2.0 + (1.0 + 2.0 + 3.0 + 4.0 + 5.0);
        assert!((g.relation_total_weight(w) - expect).abs() < 1e-12);
        // In-link CSR stayed consistent.
        let total_in: usize = g.objects().map(|v| g.in_links(v).len()).sum();
        assert_eq!(total_in, g.n_links());
    }
}
