//! Validated network construction.
//!
//! [`HinBuilder`] is the only way to create a [`HinGraph`]. It checks every
//! link against the relation's endpoint types, every weight for positivity,
//! and every attribute observation against the declared kind and vocabulary,
//! so algorithm crates can index freely without re-validating.

use crate::arena::{NameArena, NameIndex};
use crate::attributes::{AttributeData, AttributeStore};
use crate::error::{check_capacity, HinError};
use crate::graph::{HinGraph, Link};
use crate::ids::{AttributeId, ObjectId, ObjectTypeId, RelationId};
use crate::schema::{AttributeKind, Schema};

/// Pending observation storage while building.
enum AttrBuilder {
    Categorical {
        vocab_size: usize,
        /// (object, term, count) triples in insertion order.
        entries: Vec<(ObjectId, u32, f64)>,
    },
    Numerical {
        entries: Vec<(ObjectId, f64)>,
    },
}

/// Incremental, validated builder for [`HinGraph`].
pub struct HinBuilder {
    schema: Schema,
    obj_types: Vec<ObjectTypeId>,
    /// Names are interned at `add_object` time — the builder never holds a
    /// per-object `String`.
    obj_names: NameArena,
    /// (source, link) pairs in insertion order.
    links: Vec<(ObjectId, Link)>,
    attrs: Vec<AttrBuilder>,
    /// First capacity overflow observed while adding (e.g. the name arena
    /// outgrowing `u32` addressing); surfaced as the `build()` error so the
    /// infallible `add_object` signature can stay.
    capacity_error: Option<HinError>,
}

impl HinBuilder {
    /// Starts building a network against `schema`.
    pub fn new(schema: Schema) -> Self {
        let attrs = schema
            .attributes()
            .map(|(_, def)| match def.kind {
                AttributeKind::Categorical { vocab_size } => AttrBuilder::Categorical {
                    vocab_size,
                    entries: Vec::new(),
                },
                AttributeKind::Numerical => AttrBuilder::Numerical {
                    entries: Vec::new(),
                },
            })
            .collect();
        Self {
            schema,
            obj_types: Vec::new(),
            obj_names: NameArena::new(),
            links: Vec::new(),
            attrs,
            capacity_error: None,
        }
    }

    /// The schema being built against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of objects added so far.
    pub fn n_objects(&self) -> usize {
        self.obj_types.len()
    }

    /// Adds an object of type `t` and returns its id. The name is interned
    /// into the builder's arena — no per-object `String` is allocated. A
    /// capacity overflow (id space or arena bytes outgrowing `u32`) is
    /// recorded and reported by [`Self::build`] as
    /// [`HinError::CapacityExceeded`].
    ///
    /// # Panics
    /// Panics if `t` is not a declared object type.
    pub fn add_object(&mut self, t: ObjectTypeId, name: impl AsRef<str>) -> ObjectId {
        assert!(
            t.index() < self.schema.n_object_types(),
            "undeclared object type {t}"
        );
        let id = ObjectId::from_index(self.obj_types.len());
        self.obj_types.push(t);
        if let Err(e) = self.obj_names.push(name.as_ref()) {
            self.capacity_error.get_or_insert(e);
        }
        id
    }

    fn check_object(&self, v: ObjectId) -> Result<(), HinError> {
        if v.index() < self.obj_types.len() {
            Ok(())
        } else {
            Err(HinError::UnknownObject(v))
        }
    }

    /// Adds a directed link `source → target` of relation `r` with weight
    /// `w`.
    pub fn add_link(
        &mut self,
        source: ObjectId,
        target: ObjectId,
        r: RelationId,
        weight: f64,
    ) -> Result<(), HinError> {
        self.check_object(source)?;
        self.check_object(target)?;
        self.schema.check_relation(r)?;
        if !(weight > 0.0 && weight.is_finite()) {
            return Err(HinError::InvalidWeight { weight });
        }
        let def = self.schema.relation(r);
        let got = (
            self.obj_types[source.index()],
            self.obj_types[target.index()],
        );
        if got != (def.source, def.target) {
            return Err(HinError::EndpointTypeMismatch {
                relation: r,
                expected: (def.source, def.target),
                got,
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

    /// Adds a pair of mutually inverse links (`r` forward, `r_inv` backward)
    /// with the same weight — the common pattern for the evaluation networks
    /// where every relation is declared together with its inverse.
    pub fn add_link_pair(
        &mut self,
        source: ObjectId,
        target: ObjectId,
        r: RelationId,
        r_inv: RelationId,
        weight: f64,
    ) -> Result<(), HinError> {
        self.add_link(source, target, r, weight)?;
        self.add_link(target, source, r_inv, weight)
    }

    /// Records `count` occurrences of `term` for object `v` under categorical
    /// attribute `a`. Repeated calls for the same `(v, term)` accumulate.
    pub fn add_term_count(
        &mut self,
        v: ObjectId,
        a: AttributeId,
        term: u32,
        count: f64,
    ) -> Result<(), HinError> {
        self.check_object(v)?;
        self.schema.check_attribute(a)?;
        if !(count > 0.0 && count.is_finite()) {
            return Err(HinError::NonFiniteObservation { attribute: a });
        }
        match &mut self.attrs[a.index()] {
            AttrBuilder::Categorical {
                vocab_size,
                entries,
            } => {
                if (term as usize) >= *vocab_size {
                    return Err(HinError::TermOutOfRange {
                        attribute: a,
                        term: term as usize,
                        vocab_size: *vocab_size,
                    });
                }
                entries.push((v, term, count));
                Ok(())
            }
            AttrBuilder::Numerical { .. } => Err(HinError::AttributeKindMismatch {
                attribute: a,
                expected: "term-count",
            }),
        }
    }

    /// Records one occurrence each for a slice of terms (a tokenized text).
    pub fn add_terms(
        &mut self,
        v: ObjectId,
        a: AttributeId,
        terms: &[u32],
    ) -> Result<(), HinError> {
        for &t in terms {
            self.add_term_count(v, a, t, 1.0)?;
        }
        Ok(())
    }

    /// Records one numerical observation of attribute `a` for object `v`.
    pub fn add_numeric(&mut self, v: ObjectId, a: AttributeId, value: f64) -> Result<(), HinError> {
        self.check_object(v)?;
        self.schema.check_attribute(a)?;
        if !value.is_finite() {
            return Err(HinError::NonFiniteObservation { attribute: a });
        }
        match &mut self.attrs[a.index()] {
            AttrBuilder::Numerical { entries } => {
                entries.push((v, value));
                Ok(())
            }
            AttrBuilder::Categorical { .. } => Err(HinError::AttributeKindMismatch {
                attribute: a,
                expected: "numerical",
            }),
        }
    }

    /// Finalizes the network: builds CSR out-/in-adjacency (counting sort by
    /// endpoint — O(|V| + |E|)), groups each out-link segment by relation and
    /// derives the per-relation indexes (sub-segment offsets, weighted
    /// degrees, global counts/weights — all O(|V|·|R| + |E|)), builds the
    /// name → id map, and densifies the attribute tables.
    pub fn build(self) -> Result<HinGraph, HinError> {
        if let Some(e) = self.capacity_error {
            return Err(e);
        }
        let n = self.obj_types.len();
        let n_rel = self.schema.n_relations();
        // Ids and CSR offsets are u32 on the wire and in memory; reject a
        // graph the layout cannot address instead of wrapping silently.
        check_capacity("objects", n)?;
        check_capacity("links", self.links.len())?;

        let (out_offsets, mut out_links) =
            build_csr(n, self.links.iter().map(|&(src, link)| (src, link)));
        let (in_offsets, in_links) = build_csr(
            n,
            self.links.iter().map(|&(src, link)| {
                (
                    link.endpoint,
                    Link {
                        endpoint: src,
                        relation: link.relation,
                        weight: link.weight,
                    },
                )
            }),
        );

        // Group every out segment by relation with a per-segment stable
        // counting sort (relation ids are small dense integers, so a
        // comparison sort would overshoot the documented O(|V|·|R| + |E|)
        // bound on high-degree hubs) and record the sub-segment boundaries
        // plus cached per-(object, relation) / per-relation weight totals.
        let stride = n_rel + 1;
        let mut out_rel_offsets = vec![0u32; n * stride];
        let mut out_rel_weight = vec![0.0f64; n * n_rel];
        let mut rel_counts = vec![0u32; n_rel];
        let mut rel_weights = vec![0.0f64; n_rel];
        let mut seg_weight = vec![0.0f64; n_rel];
        let mut cursor = vec![0u32; n_rel];
        let mut scratch: Vec<Link> = Vec::new();
        for v in 0..n {
            let lo = out_offsets[v] as usize;
            let hi = out_offsets[v + 1] as usize;
            let offsets = &mut out_rel_offsets[v * stride..(v + 1) * stride];
            // Pass 1: per-relation counts and weight sums of this segment.
            seg_weight.iter_mut().for_each(|w| *w = 0.0);
            cursor.iter_mut().for_each(|c| *c = 0);
            for link in &out_links[lo..hi] {
                let r = link.relation.index();
                cursor[r] += 1;
                seg_weight[r] += link.weight;
            }
            offsets[0] = lo as u32;
            for r in 0..n_rel {
                let count = cursor[r];
                offsets[r + 1] = offsets[r] + count;
                // Turn the count slot into this bucket's write cursor.
                cursor[r] = offsets[r];
                out_rel_weight[v * n_rel + r] = seg_weight[r];
                rel_counts[r] += count;
                rel_weights[r] += seg_weight[r];
            }
            // Pass 2: stable scatter into the relation buckets.
            scratch.clear();
            scratch.extend_from_slice(&out_links[lo..hi]);
            for link in &scratch {
                let slot = &mut cursor[link.relation.index()];
                out_links[*slot as usize] = *link;
                *slot += 1;
            }
        }

        let name_index = NameIndex::build(&self.obj_names);

        let mut tables = Vec::with_capacity(self.attrs.len());
        for ab in self.attrs {
            match ab {
                AttrBuilder::Categorical {
                    vocab_size,
                    entries,
                } => {
                    check_capacity("attribute observations", entries.len())?;
                    // Counting-sort the (object, term, count) triples into
                    // per-object CSR rows, then sort each row by term and
                    // merge duplicates in place (compacting towards the
                    // front) so downstream code sees each term at most once
                    // per object — all without a per-object allocation.
                    let (offsets, mut flat) = scatter_by_object(
                        n,
                        entries.len(),
                        entries.iter().map(|&(v, t, c)| (v, (t, c))),
                    );
                    let mut write = 0usize;
                    let mut merged_offsets = Vec::with_capacity(n + 1);
                    merged_offsets.push(0u32);
                    for v in 0..n {
                        let lo = offsets[v] as usize;
                        let hi = offsets[v + 1] as usize;
                        flat[lo..hi].sort_unstable_by_key(|&(t, _)| t);
                        let mut i = lo;
                        while i < hi {
                            let (t, mut c) = flat[i];
                            i += 1;
                            while i < hi && flat[i].0 == t {
                                c += flat[i].1;
                                i += 1;
                            }
                            flat[write] = (t, c);
                            write += 1;
                        }
                        merged_offsets.push(write as u32);
                    }
                    flat.truncate(write);
                    tables.push(AttributeData::Categorical {
                        vocab_size,
                        offsets: merged_offsets,
                        entries: flat,
                    });
                }
                AttrBuilder::Numerical { entries } => {
                    check_capacity("attribute observations", entries.len())?;
                    let (offsets, values) =
                        scatter_by_object(n, entries.len(), entries.iter().copied());
                    tables.push(AttributeData::Numerical { offsets, values });
                }
            }
        }

        Ok(HinGraph {
            schema: self.schema,
            obj_types: self.obj_types,
            obj_names: self.obj_names,
            out_offsets,
            out_links,
            in_offsets,
            in_links,
            attrs: AttributeStore { tables },
            name_index,
            out_rel_offsets,
            out_rel_weight,
            rel_counts,
            rel_weights,
        })
    }
}

/// Counting-sort CSR construction from `(bucket, link)` pairs.
fn build_csr(
    n: usize,
    pairs: impl Iterator<Item = (ObjectId, Link)> + Clone,
) -> (Vec<u32>, Vec<Link>) {
    let mut offsets = vec![0u32; n + 1];
    for (src, _) in pairs.clone() {
        offsets[src.index() + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let total = offsets[n] as usize;
    let mut links = vec![
        Link {
            endpoint: ObjectId(0),
            relation: RelationId(0),
            weight: 0.0,
        };
        total
    ];
    let mut cursor = offsets.clone();
    for (src, link) in pairs {
        let pos = cursor[src.index()] as usize;
        links[pos] = link;
        cursor[src.index()] += 1;
    }
    (offsets, links)
}

/// Stable counting-sort scatter of `(object, payload)` pairs into flat CSR
/// rows — insertion order preserved within each object, no per-object
/// allocation.
fn scatter_by_object<T: Copy + Default>(
    n: usize,
    total: usize,
    pairs: impl Iterator<Item = (ObjectId, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    let mut offsets = vec![0u32; n + 1];
    for (v, _) in pairs.clone() {
        offsets[v.index() + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut flat = vec![T::default(); total];
    let mut cursor = offsets.clone();
    for (v, x) in pairs {
        let slot = &mut cursor[v.index()];
        flat[*slot as usize] = x;
        *slot += 1;
    }
    (offsets, flat)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> (
        Schema,
        ObjectTypeId,
        ObjectTypeId,
        RelationId,
        AttributeId,
        AttributeId,
    ) {
        let mut s = Schema::new();
        let sensor_t = s.add_object_type("temp_sensor");
        let sensor_p = s.add_object_type("precip_sensor");
        let knn = s.add_relation("tt", sensor_t, sensor_t);
        let temp = s.add_numerical_attribute("temperature");
        let text = s.add_categorical_attribute("tags", 4);
        (s, sensor_t, sensor_p, knn, temp, text)
    }

    #[test]
    fn rejects_endpoint_type_mismatch() {
        let (s, t, p, knn, _, _) = schema();
        let mut b = HinBuilder::new(s);
        let v_t = b.add_object(t, "t0");
        let v_p = b.add_object(p, "p0");
        let err = b.add_link(v_t, v_p, knn, 1.0).unwrap_err();
        assert!(matches!(err, HinError::EndpointTypeMismatch { .. }));
    }

    #[test]
    fn rejects_bad_weights() {
        let (s, t, _, knn, _, _) = schema();
        let mut b = HinBuilder::new(s);
        let v0 = b.add_object(t, "t0");
        let v1 = b.add_object(t, "t1");
        assert!(matches!(
            b.add_link(v0, v1, knn, 0.0),
            Err(HinError::InvalidWeight { .. })
        ));
        assert!(matches!(
            b.add_link(v0, v1, knn, -1.0),
            Err(HinError::InvalidWeight { .. })
        ));
        assert!(matches!(
            b.add_link(v0, v1, knn, f64::NAN),
            Err(HinError::InvalidWeight { .. })
        ));
        assert!(b.add_link(v0, v1, knn, 0.5).is_ok());
    }

    #[test]
    fn rejects_unknown_object() {
        let (s, t, _, knn, _, _) = schema();
        let mut b = HinBuilder::new(s);
        let v0 = b.add_object(t, "t0");
        let ghost = ObjectId(42);
        assert!(matches!(
            b.add_link(v0, ghost, knn, 1.0),
            Err(HinError::UnknownObject(_))
        ));
    }

    #[test]
    fn rejects_attribute_kind_confusion_and_bad_terms() {
        let (s, t, _, _, temp, text) = schema();
        let mut b = HinBuilder::new(s);
        let v0 = b.add_object(t, "t0");
        assert!(matches!(
            b.add_term_count(v0, temp, 0, 1.0),
            Err(HinError::AttributeKindMismatch { .. })
        ));
        assert!(matches!(
            b.add_numeric(v0, text, 1.0),
            Err(HinError::AttributeKindMismatch { .. })
        ));
        assert!(matches!(
            b.add_term_count(v0, text, 99, 1.0),
            Err(HinError::TermOutOfRange { .. })
        ));
        assert!(matches!(
            b.add_numeric(v0, temp, f64::INFINITY),
            Err(HinError::NonFiniteObservation { .. })
        ));
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let (s, t, _, _, _, text) = schema();
        let mut b = HinBuilder::new(s);
        let v0 = b.add_object(t, "t0");
        b.add_terms(v0, text, &[2, 0, 2, 2]).unwrap();
        b.add_term_count(v0, text, 0, 3.0).unwrap();
        let g = b.build().unwrap();
        let counts = g.attribute(text).term_counts(v0);
        assert_eq!(counts, &[(0, 4.0), (2, 3.0)]);
    }

    #[test]
    fn csr_preserves_all_links() {
        let (s, t, _, knn, _, _) = schema();
        let mut b = HinBuilder::new(s);
        let vs: Vec<_> = (0..5).map(|i| b.add_object(t, format!("t{i}"))).collect();
        // Star out of v0 plus a chain.
        for &v in &vs[1..] {
            b.add_link(vs[0], v, knn, 1.0).unwrap();
        }
        for w in vs.windows(2) {
            b.add_link(w[1], w[0], knn, 2.0).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(g.n_links(), 8);
        assert_eq!(g.out_links(vs[0]).count(), 4);
        // Chain links are v1→v0, v2→v1, v3→v2, v4→v3, so in(v0) = {v1}.
        let sources: Vec<_> = g.in_links(vs[0]).iter().map(|l| l.endpoint).collect();
        assert_eq!(sources, vec![vs[1]]);
        // Every link appears exactly once in each adjacency direction.
        let total_in: usize = (0..5).map(|i| g.in_links(vs[i]).len()).sum();
        assert_eq!(total_in, 8);
    }

    #[test]
    fn empty_network_builds() {
        let (s, ..) = schema();
        let g = HinBuilder::new(s).build().unwrap();
        assert_eq!(g.n_objects(), 0);
        assert_eq!(g.n_links(), 0);
    }

    #[test]
    fn out_segments_are_grouped_by_relation() {
        let mut s = Schema::new();
        let t = s.add_object_type("node");
        let r0 = s.add_relation("r0", t, t);
        let r1 = s.add_relation("r1", t, t);
        let mut b = HinBuilder::new(s);
        let vs: Vec<_> = (0..4).map(|i| b.add_object(t, format!("v{i}"))).collect();
        // Interleave relations on purpose; build() must group them.
        b.add_link(vs[0], vs[1], r1, 1.0).unwrap();
        b.add_link(vs[0], vs[2], r0, 2.0).unwrap();
        b.add_link(vs[0], vs[3], r1, 3.0).unwrap();
        b.add_link(vs[0], vs[1], r0, 4.0).unwrap();
        let g = b.build().unwrap();
        let rels: Vec<_> = g.out_links(vs[0]).map(|l| l.relation).collect();
        assert_eq!(rels, vec![r0, r0, r1, r1]);
        // Stable grouping: insertion order preserved within each relation.
        let w: Vec<_> = g
            .out_links_for_relation(vs[0], r1)
            .map(|l| l.weight)
            .collect();
        assert_eq!(w, vec![1.0, 3.0]);
        assert_eq!(g.out_weight(vs[0], r0), 6.0);
        assert_eq!(g.relation_total_weight(r1), 4.0);
    }

    #[test]
    fn duplicate_names_resolve_to_the_first_object() {
        let (s, t, ..) = schema();
        let mut b = HinBuilder::new(s);
        let first = b.add_object(t, "twin");
        let _second = b.add_object(t, "twin");
        let g = b.build().unwrap();
        assert_eq!(g.object_by_name("twin"), Some(first));
    }
}
