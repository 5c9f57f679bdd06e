//! Seeded inputs: the network spec and the request streams.
//!
//! Everything the program sees is derived from the workload seed: the
//! `ScaledSpec` is re-seeded with it, and each client's request stream is
//! a splitmix64 sequence keyed by (seed, client). The same seed gives the
//! same network and the same request sequence per client.

use genclus_datagen::{ScaledShape, ScaledSpec, SCALED_K};
use genclus_hin::{AttributeKind, HinGraph, ObjectId, RelationId};
use genclus_serve::FoldInRequest;

/// Vocabulary of the scaled dblp preset and the width of each planted band
/// (`genclus_datagen::scaled` draws title terms from band `c` of area `c`).
const DBLP_VOCAB: usize = 200;
const DBLP_BAND: usize = DBLP_VOCAB / SCALED_K;

/// splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Self(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The schema vocabulary of one scaled shape, as the wire protocol names it.
#[derive(Clone, Copy)]
pub struct Shape {
    pub kind: ScaledShape,
    /// Objects of the "source" type (temp sensors / authors): the ones that
    /// carry observations, get queried, and are committed.
    pub n_src: usize,
    /// Objects of the linked type (precip sensors / venues).
    pub n_dst: usize,
}

impl Shape {
    pub fn of(spec: &ScaledSpec) -> Self {
        let n_src = match spec.shape {
            ScaledShape::Weather => spec.n_objects * 2 / 3,
            ScaledShape::Dblp => spec.n_objects * 3 / 4,
        };
        Self {
            kind: spec.shape,
            n_src,
            n_dst: spec.n_objects - n_src,
        }
    }

    pub fn src_name(&self, i: usize) -> String {
        match self.kind {
            ScaledShape::Weather => format!("t-{i}"),
            ScaledShape::Dblp => format!("a-{i}"),
        }
    }

    pub fn dst_name(&self, j: usize) -> String {
        match self.kind {
            ScaledShape::Weather => format!("p-{j}"),
            ScaledShape::Dblp => format!("v-{j}"),
        }
    }

    pub fn src_type(&self) -> &'static str {
        match self.kind {
            ScaledShape::Weather => "temp_sensor",
            ScaledShape::Dblp => "author",
        }
    }

    fn relation(&self) -> &'static str {
        match self.kind {
            ScaledShape::Weather => "tp",
            ScaledShape::Dblp => "writes_in",
        }
    }

    /// The reciprocal of [`Self::relation`], which the generator pairs with
    /// every link.
    fn reverse_relation(&self) -> &'static str {
        match self.kind {
            ScaledShape::Weather => "pt",
            ScaledShape::Dblp => "hosts",
        }
    }

    fn attribute(&self) -> &'static str {
        match self.kind {
            ScaledShape::Weather => "temperature",
            ScaledShape::Dblp => "text",
        }
    }
}

/// The planted cluster of every observed object, recovered from the
/// generated observations alone (weather: ⌊x/5⌋; dblp: the band of the
/// first title term). Objects without observations are skipped.
pub fn planted(graph: &HinGraph, attrs: &[genclus_hin::AttributeId]) -> Vec<(ObjectId, usize)> {
    let mut out = Vec::new();
    for v in graph.objects() {
        for &a in attrs {
            let data = graph.attribute(a);
            let first = match graph.schema().attribute(a).kind {
                AttributeKind::Numerical => {
                    data.values(v).first().map(|&x| (x / 5.0).floor() as usize)
                }
                AttributeKind::Categorical { .. } => data
                    .term_counts(v)
                    .first()
                    .map(|&(t, _)| t as usize / DBLP_BAND),
            };
            if let Some(c) = first {
                out.push((v, c));
                break;
            }
        }
    }
    out
}

/// A new object's links and observation, renderable both as a wire
/// `fold_in` and as an in-process [`FoldInRequest`].
pub struct NewObject {
    /// Indices of the linked objects (precip sensors / venues).
    pub targets: [usize; 3],
    /// Weather: the temperature reading.
    pub value: f64,
    /// Dblp: two title terms from one planted band.
    pub terms: [u32; 2],
}

impl NewObject {
    pub fn draw(rng: &mut Rng, shape: &Shape) -> Self {
        let c = rng.below(SCALED_K);
        let targets = [
            rng.below(shape.n_dst),
            rng.below(shape.n_dst),
            rng.below(shape.n_dst),
        ];
        let value = c as f64 * 5.0 + rng.unit();
        let terms = [
            (c * DBLP_BAND + rng.below(DBLP_BAND)) as u32,
            (c * DBLP_BAND + rng.below(DBLP_BAND)) as u32,
        ];
        Self {
            targets,
            value,
            terms,
        }
    }

    /// The request body fields after `"op":"fold_in"`.
    pub fn wire_fields(&self, shape: &Shape) -> String {
        let rel = shape.relation();
        let links: Vec<String> = self
            .targets
            .iter()
            .map(|&j| format!("[\"{rel}\",\"{}\",1]", shape.dst_name(j)))
            .collect();
        let obs = match shape.kind {
            ScaledShape::Weather => {
                format!("\"values\":{{\"{}\":[{}]}}", shape.attribute(), self.value)
            }
            ScaledShape::Dblp => format!(
                "\"terms\":{{\"{}\":[[{},1],[{},1]]}}",
                shape.attribute(),
                self.terms[0],
                self.terms[1]
            ),
        };
        format!("\"links\":[{}],{obs}", links.join(","))
    }

    /// The reciprocal links into the object, as `(relation, source)`.
    pub fn in_links(&self, shape: &Shape, graph: &HinGraph) -> Vec<(RelationId, ObjectId)> {
        let rel = graph
            .schema()
            .relation_by_name(shape.reverse_relation())
            .expect("relation");
        self.targets
            .iter()
            .map(|&j| {
                (
                    rel,
                    graph
                        .object_by_name(&shape.dst_name(j))
                        .expect("source exists"),
                )
            })
            .collect()
    }

    /// The same object as an in-process fold-in request against `graph`.
    pub fn request(&self, shape: &Shape, graph: &HinGraph) -> FoldInRequest {
        let schema = graph.schema();
        let rel = schema.relation_by_name(shape.relation()).expect("relation");
        let attr = schema
            .attribute_by_name(shape.attribute())
            .expect("attribute");
        let mut req = FoldInRequest::default();
        for &j in &self.targets {
            let t = graph
                .object_by_name(&shape.dst_name(j))
                .expect("target exists");
            req.links.push((rel, t, 1.0));
        }
        match shape.kind {
            ScaledShape::Weather => req.values.push((attr, vec![self.value])),
            ScaledShape::Dblp => req
                .terms
                .push((attr, vec![(self.terms[0], 1.0), (self.terms[1], 1.0)])),
        }
        req
    }
}

/// One read request of the fixed mix, with what its response must show.
pub enum Read {
    Membership(usize),
    FoldIn(NewObject),
    TopK(usize),
}

/// Share of each op in the read mix, per mille: membership, fold_in,
/// top_k. The shares are inverse to the ops' client-observed p50s when the
/// benchmark was defined (16, 23 and 2100 µs on weather-100k), so each op
/// takes about a third of the read time and `read_qps` weighs a gain on
/// any one op alike; with shares by request count, `top_k` would take most
/// of it. The run reports each op's measured share (`read_time_share.*`).
const MIX: [usize; 3] = [585, 410, 5];

impl Read {
    pub fn draw(rng: &mut Rng, shape: &Shape) -> Self {
        let roll = rng.below(1000);
        if roll < MIX[0] {
            Read::Membership(rng.below(shape.n_src))
        } else if roll < MIX[0] + MIX[1] {
            Read::FoldIn(NewObject::draw(rng, shape))
        } else {
            Read::TopK(rng.below(shape.n_src))
        }
    }

    pub fn op(&self) -> usize {
        match self {
            Read::Membership(_) => 0,
            Read::FoldIn(_) => 1,
            Read::TopK(_) => 2,
        }
    }

    pub fn line(&self, shape: &Shape) -> String {
        match self {
            Read::Membership(i) => {
                format!("{{\"op\":\"membership\",\"object\":\"{}\"}}", shape.src_name(*i))
            }
            Read::FoldIn(o) => format!("{{\"op\":\"fold_in\",{}}}", o.wire_fields(shape)),
            Read::TopK(i) => format!(
                "{{\"op\":\"top_k\",\"object\":\"{}\",\"k\":10,\"sim\":\"cosine\",\"type\":\"{}\"}}",
                shape.src_name(*i),
                shape.src_type()
            ),
        }
    }
}

/// The wire line of a durable commit of a new object named `name`, with
/// the reciprocal links into it, as the generator pairs every link.
pub fn commit_line(o: &NewObject, shape: &Shape, name: &str) -> String {
    let rel = shape.reverse_relation();
    let in_links: Vec<String> = o
        .targets
        .iter()
        .map(|&j| format!("[\"{rel}\",\"{}\",1]", shape.dst_name(j)))
        .collect();
    format!(
        "{{\"op\":\"fold_in\",{},\"in_links\":[{}],\"commit\":\"{name}\"}}",
        o.wire_fields(shape),
        in_links.join(",")
    )
}
