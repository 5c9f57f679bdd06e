//! Byte serialization of the network: the `to_bytes` / `from_bytes` hooks
//! the snapshot layer (`genclus-serve`) composes into its versioned file
//! format.
//!
//! The encoding follows the [`genclus_stats::bytesio`] convention
//! (little-endian, length-prefixed, 8-padded). Design points:
//!
//! * the CSR arrays and the per-relation indexes are serialized **as built**
//!   — loading is a straight decode with structural validation, no re-sort
//!   and no re-derivation of the caches;
//! * the `name → id` map is *not* serialized: it is cheaply re-derived from
//!   the name arena, and serializing a hash table would couple the byte
//!   format to its layout;
//! * object names travel as the **arena itself** — one `u32` offset table
//!   plus one byte blob — so decoding a million names is two array reads,
//!   not a million `String` allocations. The pre-arena layout (one
//!   length-prefixed string per object) is still readable through
//!   [`HinGraph::from_bytes_v1`], the compat shim behind snapshot schema
//!   version 1;
//! * decoding never panics on malformed input — every structural invariant
//!   the builder established (offset monotonicity, id ranges, positive
//!   weights, term-vocabulary bounds, per-span UTF-8) is re-checked and a
//!   violation returns `None`. Snapshot files are operator-supplied input;
//!   the algorithm crates index without bounds checks on the strength of
//!   these invariants.

use crate::arena::{NameArena, NameIndex};
use crate::attributes::{AttributeData, AttributeStore};
use crate::graph::{HinGraph, Link};
use crate::ids::{ObjectId, ObjectTypeId, RelationId};
use crate::schema::{AttributeKind, Schema};
use genclus_stats::bytesio::{
    put_bytes, put_f64_iter, put_f64_slice, put_str, put_u16_iter, put_u32_iter, put_u32_slice,
    put_u64, put_u64_iter, ByteReader,
};

const KIND_CATEGORICAL: u64 = 0;
const KIND_NUMERICAL: u64 = 1;

impl Schema {
    /// Serializes the schema (object types, relations, attribute
    /// declarations) in declaration order.
    pub fn to_bytes(&self, out: &mut Vec<u8>) {
        put_u64(out, self.n_object_types() as u64);
        for t in 0..self.n_object_types() {
            put_str(out, self.object_type_name(ObjectTypeId::from_index(t)));
        }
        put_u64(out, self.n_relations() as u64);
        for (_, def) in self.relations() {
            put_str(out, &def.name);
            put_u64(out, def.source.index() as u64);
            put_u64(out, def.target.index() as u64);
        }
        put_u64(out, self.n_attributes() as u64);
        for (_, def) in self.attributes() {
            put_str(out, &def.name);
            match def.kind {
                AttributeKind::Categorical { vocab_size } => {
                    put_u64(out, KIND_CATEGORICAL);
                    put_u64(out, vocab_size as u64);
                }
                AttributeKind::Numerical => put_u64(out, KIND_NUMERICAL),
            }
        }
    }

    /// Inverse of [`Self::to_bytes`]; `None` on malformed input (truncation,
    /// out-of-range relation endpoints, unknown attribute kind tags, or
    /// entity counts that overflow the `u16` id space — the decode must
    /// never reach the `from_index` assertions).
    pub fn from_bytes(r: &mut ByteReader<'_>) -> Option<Self> {
        const MAX_U16_IDS: usize = u16::MAX as usize + 1;
        let mut s = Schema::new();
        let n_types = r.count(8)?;
        if n_types > MAX_U16_IDS {
            return None;
        }
        for _ in 0..n_types {
            let name = r.str()?;
            s.add_object_type(name);
        }
        let n_rel = r.count(8)?;
        if n_rel > MAX_U16_IDS {
            return None;
        }
        for _ in 0..n_rel {
            let name = r.str()?;
            let source: usize = r.u64()?.try_into().ok()?;
            let target: usize = r.u64()?.try_into().ok()?;
            if source >= n_types || target >= n_types {
                return None;
            }
            s.add_relation(
                name,
                ObjectTypeId::from_index(source),
                ObjectTypeId::from_index(target),
            );
        }
        let n_attr = r.count(8)?;
        if n_attr > MAX_U16_IDS {
            return None;
        }
        for _ in 0..n_attr {
            let name = r.str()?;
            match r.u64()? {
                KIND_CATEGORICAL => {
                    let vocab: usize = r.u64()?.try_into().ok()?;
                    s.add_categorical_attribute(name, vocab);
                }
                KIND_NUMERICAL => {
                    s.add_numerical_attribute(name);
                }
                _ => return None,
            }
        }
        Some(s)
    }
}

/// Writes a link array as three packed parallel slices (endpoints,
/// relations, weights) — struct-of-arrays keeps the encoding free of
/// per-link padding. Each field is projected straight into `out`.
fn put_links(out: &mut Vec<u8>, links: &[Link]) {
    put_u32_iter(out, links.iter().map(|l| l.endpoint.0));
    put_u16_iter(out, links.iter().map(|l| l.relation.0));
    put_f64_iter(out, links.iter().map(|l| l.weight));
}

/// Reads a link array; validates endpoint/relation ranges and weight
/// positivity. Allocates the output exactly once (collecting through
/// `Option` would grow by doubling, making the allocation count depend on
/// the link count).
fn read_links(r: &mut ByteReader<'_>, n_objects: usize, n_rel: usize) -> Option<Vec<Link>> {
    let endpoints = r.u32_slice()?;
    let relations = r.u16_slice()?;
    let weights = r.f64_slice()?;
    if endpoints.len() != relations.len() || endpoints.len() != weights.len() {
        return None;
    }
    let mut links = Vec::with_capacity(endpoints.len());
    for ((e, rel), w) in endpoints.into_iter().zip(relations).zip(weights) {
        if !((e as usize) < n_objects && (rel as usize) < n_rel && w > 0.0 && w.is_finite()) {
            return None;
        }
        links.push(Link {
            endpoint: ObjectId(e),
            relation: RelationId(rel),
            weight: w,
        });
    }
    Some(links)
}

/// `offsets` must be a monotone CSR offset array of `n + 1` entries ending
/// at `total`.
fn offsets_valid(offsets: &[u32], n: usize, total: usize) -> bool {
    offsets.len() == n + 1
        && offsets[0] == 0
        && offsets.windows(2).all(|w| w[0] <= w[1])
        && offsets[n] as usize == total
}

fn put_attr_table(out: &mut Vec<u8>, table: &AttributeData) {
    match table {
        AttributeData::Categorical {
            vocab_size,
            offsets,
            entries,
        } => {
            put_u64(out, KIND_CATEGORICAL);
            put_u64(out, *vocab_size as u64);
            // The wire format predates the CSR flattening (u64 offsets,
            // split term/value arrays) and is deliberately unchanged — the
            // schema bump is about the name block, not the attributes.
            put_u64_iter(out, offsets.iter().map(|&o| o as u64));
            put_u32_iter(out, entries.iter().map(|&(t, _)| t));
            put_f64_iter(out, entries.iter().map(|&(_, c)| c));
        }
        AttributeData::Numerical { offsets, values } => {
            put_u64(out, KIND_NUMERICAL);
            put_u64_iter(out, offsets.iter().map(|&o| o as u64));
            put_f64_slice(out, values);
        }
    }
}

fn read_attr_table(
    r: &mut ByteReader<'_>,
    n_objects: usize,
    kind: &AttributeKind,
) -> Option<AttributeData> {
    match (r.u64()?, kind) {
        (KIND_CATEGORICAL, AttributeKind::Categorical { vocab_size }) => {
            let vocab: usize = r.u64()?.try_into().ok()?;
            if vocab != *vocab_size {
                return None;
            }
            let wide = r.u64_slice()?;
            let terms = r.u32_slice()?;
            let values = r.f64_slice()?;
            if terms.len() != values.len() {
                return None;
            }
            read_offsets_validated(&wide, n_objects, terms.len())?;
            // Builder invariants: terms strictly ascending per object,
            // counts positive and finite.
            for w in wide.windows(2) {
                let row = &terms[w[0] as usize..w[1] as usize];
                if !row.windows(2).all(|p| p[0] < p[1]) {
                    return None;
                }
            }
            if terms.iter().any(|&t| (t as usize) >= vocab)
                || values.iter().any(|&c| !(c > 0.0 && c.is_finite()))
            {
                return None;
            }
            let offsets = narrow_offsets(&wide)?;
            let entries: Vec<(u32, f64)> = terms.into_iter().zip(values).collect();
            Some(AttributeData::Categorical {
                vocab_size: vocab,
                offsets,
                entries,
            })
        }
        (KIND_NUMERICAL, AttributeKind::Numerical) => {
            let wide = r.u64_slice()?;
            let flat = r.f64_slice()?;
            read_offsets_validated(&wide, n_objects, flat.len())?;
            if flat.iter().any(|x| !x.is_finite()) {
                return None;
            }
            let offsets = narrow_offsets(&wide)?;
            Some(AttributeData::Numerical {
                offsets,
                values: flat,
            })
        }
        _ => None,
    }
}

fn read_offsets_validated(offsets: &[u64], n: usize, total: usize) -> Option<()> {
    (offsets.len() == n + 1
        && offsets[0] == 0
        && offsets.windows(2).all(|w| w[0] <= w[1])
        && offsets[n] as usize == total)
        .then_some(())
}

/// Narrows wire `u64` offsets to the in-memory `u32` form; `None` if any
/// offset exceeds `u32` (the capacity the construction paths enforce).
/// Single exact allocation — see [`read_links`].
fn narrow_offsets(wide: &[u64]) -> Option<Vec<u32>> {
    let mut out = Vec::with_capacity(wide.len());
    for &o in wide {
        out.push(u32::try_from(o).ok()?);
    }
    Some(out)
}

impl HinGraph {
    /// Serializes the complete network: schema, object table, both CSR
    /// adjacencies, attribute tables, and the per-relation indexes.
    pub fn to_bytes(&self, out: &mut Vec<u8>) {
        self.to_bytes_impl(out, false);
    }

    /// Serializes in the **pre-arena** (snapshot schema v1) layout: one
    /// length-prefixed string per object instead of the arena block.
    /// Exists so the compat tests can fabricate v1 payloads; production
    /// writers always emit the current layout.
    #[doc(hidden)]
    pub fn to_bytes_v1(&self, out: &mut Vec<u8>) {
        self.to_bytes_impl(out, true);
    }

    fn to_bytes_impl(&self, out: &mut Vec<u8>, v1_names: bool) {
        self.schema.to_bytes(out);
        put_u64(out, self.n_objects() as u64);
        put_u16_iter(out, self.obj_types.iter().map(|t| t.0));
        if v1_names {
            for i in 0..self.obj_names.len() {
                put_str(out, self.obj_names.get(i));
            }
        } else {
            put_u32_slice(out, self.obj_names.raw_offsets());
            put_bytes(out, self.obj_names.raw_bytes());
        }
        put_u32_slice(out, &self.out_offsets);
        put_links(out, &self.out_links);
        put_u32_slice(out, &self.in_offsets);
        put_links(out, &self.in_links);
        put_u64(out, self.attrs.tables.len() as u64);
        for table in &self.attrs.tables {
            put_attr_table(out, table);
        }
        put_u32_slice(out, &self.out_rel_offsets);
        put_f64_slice(out, &self.out_rel_weight);
        put_u32_slice(out, &self.rel_counts);
        put_f64_slice(out, &self.rel_weights);
    }

    /// Inverse of [`Self::to_bytes`]. Re-validates every structural
    /// invariant and re-derives the name → id map; returns `None` on any
    /// inconsistency.
    pub fn from_bytes(r: &mut ByteReader<'_>) -> Option<Self> {
        Self::from_bytes_impl(r, false)
    }

    /// Decodes the **pre-arena** (snapshot schema v1) layout — the compat
    /// shim the serve crate dispatches to when a v1 header is seen. The
    /// per-object strings are interned straight into a [`NameArena`];
    /// no `String` is ever materialized.
    pub fn from_bytes_v1(r: &mut ByteReader<'_>) -> Option<Self> {
        Self::from_bytes_impl(r, true)
    }

    fn from_bytes_impl(r: &mut ByteReader<'_>, v1_names: bool) -> Option<Self> {
        let schema = Schema::from_bytes(r)?;
        let n_rel = schema.n_relations();
        let n: usize = r.u64()?.try_into().ok()?;
        let types = r.u16_slice()?;
        if types.len() != n
            || types
                .iter()
                .any(|&t| (t as usize) >= schema.n_object_types())
        {
            return None;
        }
        let obj_types: Vec<ObjectTypeId> = types.into_iter().map(ObjectTypeId).collect();
        let obj_names = if v1_names {
            let mut arena = NameArena::with_capacity(n, 0);
            for _ in 0..n {
                let len = r.count(1)?;
                let name = std::str::from_utf8(r.bytes(len)?).ok()?;
                r.align8()?;
                arena.push(name).ok()?;
            }
            arena
        } else {
            // lint: region(scale-hot)
            let offsets = r.u32_slice()?;
            let blob = r.byte_blob()?;
            if offsets.len() != n + 1 {
                return None;
            }
            let arena = NameArena::from_raw_parts(blob.to_vec(), offsets)?;
            // lint: end-region
            arena
        };
        let out_offsets = r.u32_slice()?;
        let out_links = read_links(r, n, n_rel)?;
        if !offsets_valid(&out_offsets, n, out_links.len()) {
            return None;
        }
        let in_offsets = r.u32_slice()?;
        let in_links = read_links(r, n, n_rel)?;
        if !offsets_valid(&in_offsets, n, in_links.len()) || in_links.len() != out_links.len() {
            return None;
        }
        let n_attr = r.count(8)?;
        if n_attr != schema.n_attributes() {
            return None;
        }
        let mut tables = Vec::with_capacity(n_attr);
        for a in 0..n_attr {
            let kind = &schema
                .attribute(crate::ids::AttributeId::from_index(a))
                .kind;
            tables.push(read_attr_table(r, n, kind)?);
        }
        let out_rel_offsets = r.u32_slice()?;
        if out_rel_offsets.len() != n * (n_rel + 1) {
            return None;
        }
        let out_rel_weight = r.f64_slice()?;
        if out_rel_weight.len() != n * n_rel {
            return None;
        }
        let rel_counts = r.u32_slice()?;
        let rel_weights = r.f64_slice()?;
        if rel_counts.len() != n_rel || rel_weights.len() != n_rel {
            return None;
        }
        // Per-relation sub-segments must tile each object's out segment.
        let stride = n_rel + 1;
        for v in 0..n {
            let row = &out_rel_offsets[v * stride..(v + 1) * stride];
            if row[0] != out_offsets[v]
                || row[n_rel] != out_offsets[v + 1]
                || row.windows(2).any(|w| w[0] > w[1])
            {
                return None;
            }
        }
        let name_index = NameIndex::build(&obj_names);
        Some(HinGraph {
            schema,
            obj_types,
            obj_names,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::HinBuilder;

    fn toy() -> HinGraph {
        let mut s = Schema::new();
        let a = s.add_object_type("author");
        let p = s.add_object_type("paper");
        let w = s.add_relation("write", a, p);
        let wb = s.add_relation("written_by", p, a);
        let text = s.add_categorical_attribute("text", 5);
        let year = s.add_numerical_attribute("year");
        let mut b = HinBuilder::new(s);
        let a0 = b.add_object(a, "alice");
        let a1 = b.add_object(a, "bob");
        let p0 = b.add_object(p, "p0");
        let p1 = b.add_object(p, "p1");
        b.add_link_pair(a0, p0, w, wb, 1.0).unwrap();
        b.add_link_pair(a0, p1, w, wb, 2.5).unwrap();
        b.add_link_pair(a1, p1, w, wb, 0.5).unwrap();
        b.add_terms(p0, text, &[0, 2, 2]).unwrap();
        b.add_numeric(p0, year, 2012.0).unwrap();
        b.add_numeric(p1, year, 2013.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn schema_round_trips() {
        let g = toy();
        let mut bytes = Vec::new();
        g.schema().to_bytes(&mut bytes);
        let back = Schema::from_bytes(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(&back, g.schema());
        let mut again = Vec::new();
        back.to_bytes(&mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn graph_round_trips_byte_identically() {
        let g = toy();
        let mut bytes = Vec::new();
        g.to_bytes(&mut bytes);
        let back = HinGraph::from_bytes(&mut ByteReader::new(&bytes)).unwrap();
        let mut again = Vec::new();
        back.to_bytes(&mut again);
        assert_eq!(again, bytes, "save → load → save must be byte-identical");
        // Structure survives, including the derived indexes and name map.
        assert_eq!(back.n_objects(), g.n_objects());
        assert_eq!(back.n_links(), g.n_links());
        assert_eq!(back.object_by_name("alice"), g.object_by_name("alice"));
        let w = g.schema().relation_by_name("write").unwrap();
        for v in g.objects() {
            assert!(back.out_links(v).eq(g.out_links(v)));
            assert_eq!(back.in_links(v), g.in_links(v));
            assert_eq!(back.out_weight(v, w), g.out_weight(v, w));
        }
        let text = g.schema().attribute_by_name("text").unwrap();
        assert_eq!(
            back.attribute(text).term_counts(ObjectId(2)),
            g.attribute(text).term_counts(ObjectId(2))
        );
    }

    #[test]
    fn appended_graphs_round_trip_byte_identically() {
        // The delta path must not produce anything the codec treats
        // specially: grow a *loaded* graph, save it, and require the bytes
        // to load back and re-save identically — the serve crate's refresh
        // loop (load → append → re-snapshot) leans on exactly this.
        let g = toy();
        let mut bytes = Vec::new();
        g.to_bytes(&mut bytes);
        let mut loaded = HinGraph::from_bytes(&mut ByteReader::new(&bytes)).unwrap();
        let author = loaded.schema().object_type_by_name("author").unwrap();
        let w = loaded.schema().relation_by_name("write").unwrap();
        let mut d = crate::delta::GraphDelta::new(&loaded);
        let carol = d.add_object(author, "carol");
        d.add_link(carol, ObjectId(2), w, 1.5).unwrap();
        loaded.append(d).unwrap();

        let mut grown = Vec::new();
        loaded.to_bytes(&mut grown);
        let back = HinGraph::from_bytes(&mut ByteReader::new(&grown)).unwrap();
        let mut again = Vec::new();
        back.to_bytes(&mut again);
        assert_eq!(again, grown, "appended graph must stay byte-stable");
        assert_eq!(back.object_by_name("carol"), Some(carol));
        assert_eq!(back.out_links(carol).count(), 1);
    }

    #[test]
    fn malformed_graphs_are_rejected() {
        let g = toy();
        let mut bytes = Vec::new();
        g.to_bytes(&mut bytes);
        // Truncations at every prefix must fail cleanly, never panic.
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                HinGraph::from_bytes(&mut ByteReader::new(&bytes[..cut])).is_none(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn v1_name_layout_round_trips_through_the_shim() {
        let g = toy();
        let mut v1 = Vec::new();
        g.to_bytes_v1(&mut v1);
        let back = HinGraph::from_bytes_v1(&mut ByteReader::new(&v1)).unwrap();
        // The shim interns names into the arena; everything else matches.
        assert_eq!(back.object_by_name("alice"), g.object_by_name("alice"));
        assert_eq!(back.object_name(ObjectId(3)), g.object_name(ObjectId(3)));
        assert_eq!(back.n_links(), g.n_links());
        // v1 save → load → v1 save stays byte-identical too: the legacy
        // layout is frozen, not merely readable.
        let mut again = Vec::new();
        back.to_bytes_v1(&mut again);
        assert_eq!(again, v1, "v1 layout must stay byte-stable");
        // And re-saving in the current layout equals a direct current save.
        let (mut cur_direct, mut cur_via_v1) = (Vec::new(), Vec::new());
        g.to_bytes(&mut cur_direct);
        back.to_bytes(&mut cur_via_v1);
        assert_eq!(cur_via_v1, cur_direct, "v1 → v2 migration is lossless");
    }

    #[test]
    fn v1_and_v2_layouts_differ() {
        // A v2 payload must not accidentally parse as v1 (or vice versa) —
        // the serve header, not sniffing, selects the decoder.
        let g = toy();
        let (mut v1, mut v2) = (Vec::new(), Vec::new());
        g.to_bytes_v1(&mut v1);
        g.to_bytes(&mut v2);
        assert_ne!(v1, v2);
        assert!(HinGraph::from_bytes(&mut ByteReader::new(&v1)).is_none());
    }

    #[test]
    fn corrupt_arena_blocks_are_rejected() {
        let g = toy();
        let mut bytes = Vec::new();
        g.to_bytes(&mut bytes);
        // The name block sits right after the (8-padded) type slice; find it
        // by locating the arena byte blob and corrupting a name byte to a
        // UTF-8 continuation byte — decode must refuse, not panic.
        let needle = b"alice";
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap();
        let mut bad = bytes.clone();
        bad[at] = 0xBF;
        assert!(HinGraph::from_bytes(&mut ByteReader::new(&bad)).is_none());
    }

    #[test]
    fn empty_graph_round_trips() {
        let mut s = Schema::new();
        s.add_object_type("t");
        s.add_numerical_attribute("x");
        let g = HinBuilder::new(s).build().unwrap();
        let mut bytes = Vec::new();
        g.to_bytes(&mut bytes);
        let back = HinGraph::from_bytes(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.n_objects(), 0);
        assert_eq!(back.schema().n_attributes(), 1);
    }
}
