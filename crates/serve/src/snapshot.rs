//! The versioned snapshot file format.
//!
//! A snapshot persists everything `fit` produced — the network topology
//! with its indexes and the fitted model (`Θ`, `γ`, `β`, `ε`) — in one
//! dependency-free binary file:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"GENCLUS\0"
//! 8       4     schema version (u32 LE), currently 2
//! 12      4     reserved (0)
//! 16      8     payload length in bytes (u64 LE)
//! 24      8     FNV-1a 64 checksum of the payload (u64 LE)
//! 32      8     absolute file offset of the Θ data (u64 LE, 8-aligned)
//! 40      8     Θ rows (u64 LE)
//! 48      8     Θ columns (u64 LE)
//! 56      8     reserved (0)
//! 64      …     payload: [HinGraph::to_bytes][pad to 8][GenClusModel::to_bytes]
//! ```
//!
//! All multi-byte values are little-endian (see [`genclus_stats::bytesio`]).
//! The writer is deterministic, so save → load → save is **byte-identical**
//! (a property test asserts this), and the header carries the `Θ` geometry
//! so a reader can serve membership rows straight out of the file bytes —
//! [`Snapshot::theta_view`] is an mmap-style zero-copy `&[f64]` into the
//! load buffer, no per-entry decoding — while [`Snapshot::into_parts`] /
//! the decoded [`Snapshot::model`] cover mutation-friendly use.
//!
//! Compatibility policy: the version is bumped whenever the payload layout
//! changes; readers reject newer versions loudly
//! ([`ServeError::UnsupportedVersion`]) instead of misreading them, and CI
//! keeps a committed fixture snapshot per historical version to prove older
//! files keep loading. Version history:
//!
//! * **1** — per-object length-prefixed name strings. Still readable: the
//!   header dispatches the graph decode to [`HinGraph::from_bytes_v1`].
//! * **2** — names travel as the interned arena (one `u32` offset table +
//!   one byte blob); writers always emit this layout.
//!
//! Each byte is touched as few times as the format allows:
//!
//! * **Load** reads the file once, straight into [`AlignedBytes`] sized
//!   from the file's metadata — no intermediate `Vec<u8>`, no second copy.
//! * **Verify ∥ decode.** The FNV-1a checksum is a serial byte chain, as
//!   long as the rest of the decode put together at 100k objects, so
//!   [`Snapshot::load`] and [`Snapshot::from_bytes`] hash the payload on a
//!   scoped helper thread while the calling thread decodes the network and
//!   model. Nothing unverified escapes: both halves finish before anything
//!   is returned, and a checksum mismatch outranks any decode error, so
//!   every input fails exactly as it would with the two run in sequence.
//!   If the helper cannot be spawned the checksum is verified inline.
//! * **Encode** writes one buffer: a zeroed header placeholder, the
//!   payload in place after it, then the header with the payload checksum
//!   patched over the placeholder. A refresh builds its served snapshot
//!   from the graph and model it already holds (`Snapshot::from_parts`):
//!   one encode, no second checksum pass, no decode.

use crate::error::ServeError;
use genclus_core::GenClusModel;
use genclus_hin::HinGraph;
use genclus_stats::bytesio::{fnv1a64, pad8, ByteReader};
use std::io::Read as _;
use std::path::Path;

/// First 8 bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"GENCLUS\0";
/// Current (highest readable) snapshot schema version.
pub const SCHEMA_VERSION: u32 = 2;
/// Bytes before the payload.
pub const HEADER_LEN: usize = 64;

/// A byte buffer whose storage is 8-aligned, so `f64` payload sections can
/// be viewed in place.
pub struct AlignedBytes {
    storage: Storage,
    len: usize,
}

/// Where the bytes of an [`AlignedBytes`] live.
enum Storage {
    /// `u64` elements guarantee 8-byte alignment.
    Words(Vec<u64>),
    /// An encoder's buffer, adopted as is because its allocation was found
    /// to start 8-aligned ([`AlignedBytes::from_vec`] checks).
    Bytes(Vec<u8>),
}

impl AlignedBytes {
    /// Copies `bytes` into aligned storage.
    pub fn copy_from(bytes: &[u8]) -> Self {
        let mut a = Self::zeroed(bytes.len());
        a.as_mut_slice().copy_from_slice(bytes);
        a
    }

    /// Takes ownership of `bytes` when its allocation already starts
    /// 8-aligned — what every mainstream allocator hands out — and copies
    /// it into aligned storage only otherwise.
    fn from_vec(bytes: Vec<u8>) -> Self {
        if (bytes.as_ptr() as usize).is_multiple_of(8) {
            Self {
                len: bytes.len(),
                storage: Storage::Bytes(bytes),
            }
        } else {
            Self::copy_from(&bytes)
        }
    }

    /// Zero-filled aligned buffer of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        Self {
            storage: Storage::Words(vec![0u64; len.div_ceil(8)]),
            len,
        }
    }

    /// The bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.storage {
            // SAFETY: `words` owns at least `len` initialized bytes and u8
            // has no alignment requirement.
            Storage::Words(words) => unsafe {
                std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), self.len)
            },
            Storage::Bytes(bytes) => bytes,
        }
    }

    /// Mutable access (used only while filling the buffer).
    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u8] {
        match &mut self.storage {
            // SAFETY: as above; exclusive borrow of self guarantees no
            // aliasing.
            Storage::Words(words) => unsafe {
                std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), self.len)
            },
            Storage::Bytes(bytes) => bytes,
        }
    }

    /// Buffer length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the whole file at `path` with one allocation, sized from the
    /// file's metadata, and one copy out of the page cache. A file that
    /// turns out shorter or longer than its metadata said (a pipe, a file
    /// changing underneath) is still read whole.
    fn read_file(path: &Path) -> std::io::Result<Self> {
        let mut f = std::fs::File::open(path)?;
        let hint = usize::try_from(f.metadata()?.len()).unwrap_or(0);
        let mut buf = Self::zeroed(hint);
        let mut filled = 0;
        while filled < hint {
            match f.read(&mut buf.as_mut_slice()[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // At end of file this is one small probe read, no allocation.
        let mut rest = Vec::new();
        f.read_to_end(&mut rest)?;
        if filled == hint && rest.is_empty() {
            return Ok(buf);
        }
        let mut all = buf.as_slice()[..filled].to_vec();
        all.extend_from_slice(&rest);
        Ok(Self::from_vec(all))
    }
}

/// Serializes a fitted model plus its network into snapshot bytes.
pub fn to_bytes(graph: &HinGraph, model: &GenClusModel) -> Vec<u8> {
    encode(graph, model).0
}

/// [`to_bytes`] plus the header it wrote. One buffer: a zeroed header
/// placeholder, the payload written in place after it, then the header —
/// payload checksum included — patched over the placeholder.
fn encode(graph: &HinGraph, model: &GenClusModel) -> (Vec<u8>, Header) {
    let mut out = vec![0u8; HEADER_LEN];
    graph.to_bytes(&mut out);
    // `HEADER_LEN` is a multiple of 8, so padding relative to the buffer
    // pads the payload exactly as padding relative to the payload would.
    pad8(&mut out);
    let model_start = out.len();
    let theta_offset = model_start + model.to_bytes(&mut out);
    debug_assert_eq!(theta_offset % 8, 0, "Θ payload must be 8-aligned");
    let header = Header {
        version: SCHEMA_VERSION,
        payload_len: out.len() - HEADER_LEN,
        checksum: fnv1a64(&out[HEADER_LEN..]),
        theta_offset,
        theta_rows: model.theta.n_objects(),
        theta_cols: model.theta.n_clusters(),
    };
    out[..HEADER_LEN].copy_from_slice(&header.to_bytes());
    (out, header)
}

/// Writes a snapshot file (atomically: a temp file in the same directory is
/// renamed over the target, so readers never observe a half-written
/// snapshot).
pub fn save(path: &Path, graph: &HinGraph, model: &GenClusModel) -> Result<(), ServeError> {
    save_bytes(path, &to_bytes(graph, model))
}

/// Atomically and **durably** writes pre-serialized snapshot bytes (the
/// temp-file + rename dance of [`save`]) — used by the refresh path, which
/// persists the raw bytes of the snapshot it is about to swap in.
///
/// Durability discipline: the temp file is `sync_all`ed *before* the
/// rename and the parent directory is fsynced *after* it. Rename-without-
/// fsync only guarantees readers never see a half-written file through the
/// filesystem cache; on power loss the journal may replay the rename
/// before the data blocks land, leaving a renamed-but-empty snapshot. The
/// directory fsync makes the rename itself survive the same way.
pub fn save_bytes(path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
    atomic_write_durable(path, bytes, &mut |_| Ok(()))
}

/// [`save_bytes`] with a caller-chosen temp-name tag. The tag keeps
/// *same-process* concurrent writers to one target distinct (the pid in
/// the temp name already separates processes): the serve binary's
/// periodic metrics dumper and its final-dump-at-exit can overlap, and
/// renames of complete files are safe in either order while a shared temp
/// path would not be. This is the only sanctioned way to persist
/// non-snapshot artifacts — routing through it keeps every persisted file
/// on the same fsync-before-rename discipline (`durable-io-containment`).
pub fn save_bytes_tagged(path: &Path, bytes: &[u8], tag: &str) -> Result<(), ServeError> {
    atomic_write_durable_tagged(path, bytes, tag, &mut |_| Ok(()))
}

/// The shared atomic + durable write: temp file in the same directory →
/// `write_all` → `sync_all` → `rename` → parent-directory fsync. `stage`
/// is called after each durability checkpoint (`"tmp-synced"`,
/// `"renamed"`, `"dir-synced"`) and may return an error to abort between
/// steps — the injectable seam the save-path sync test and the WAL's
/// fault-injection harness both use; production callers pass a no-op.
pub(crate) fn atomic_write_durable(
    path: &Path,
    bytes: &[u8],
    stage: &mut dyn FnMut(&'static str) -> std::io::Result<()>,
) -> Result<(), ServeError> {
    atomic_write_durable_tagged(path, bytes, ".tmp", stage)
}

fn atomic_write_durable_tagged(
    path: &Path,
    bytes: &[u8],
    tag: &str,
    stage: &mut dyn FnMut(&'static str) -> std::io::Result<()>,
) -> Result<(), ServeError> {
    use std::io::Write as _;
    // Appended (not `with_extension`) so `model.gcsnap` and `model.bak` in
    // one directory do not collide on the same temp file.
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| {
            ServeError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "snapshot path has no file name",
            ))
        })?
        .to_os_string();
    tmp_name.push(format!("{tag}-{}~", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    stage("tmp-synced")?;
    std::fs::rename(&tmp, path)?;
    stage("renamed")?;
    sync_parent_dir(path)?;
    stage("dir-synced")?;
    Ok(())
}

/// Fsyncs the directory holding `path`, making a just-completed rename
/// durable. A no-op on targets where directories cannot be opened.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
    Ok(())
}

/// The parsed header of a snapshot buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Snapshot schema version.
    pub version: u32,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// FNV-1a 64 checksum of the payload.
    pub checksum: u64,
    /// Absolute offset of the Θ data.
    pub theta_offset: usize,
    /// Θ rows.
    pub theta_rows: usize,
    /// Θ columns.
    pub theta_cols: usize,
}

impl Header {
    /// Parses and validates the fixed-size header (magic, version, length
    /// coherence, Θ geometry). Does **not** hash the payload; see
    /// [`Header::verify_checksum`].
    pub fn parse(bytes: &[u8]) -> Result<Self, ServeError> {
        if bytes.len() < HEADER_LEN {
            return Err(ServeError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(ServeError::BadMagic);
        }
        // lint: allow(no-panic-in-serve) -- infallible by construction: a 4-byte range always converts to [u8; 4]
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
        // lint: allow(no-panic-in-serve) -- infallible by construction: an 8-byte range always converts to [u8; 8]
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
        // Header sizes are u64 on disk; on a 32-bit target an `as usize`
        // cast would silently truncate (wrap) an attacker-controlled field
        // past every later bound check. Reject anything unrepresentable.
        let usize_at = |o: usize| {
            usize::try_from(u64_at(o)).map_err(|_| ServeError::Malformed("header field overflow"))
        };
        let version = u32_at(8);
        if version == 0 || version > SCHEMA_VERSION {
            return Err(ServeError::UnsupportedVersion {
                found: version,
                supported: SCHEMA_VERSION,
            });
        }
        // The reserved fields must be zero: they are outside the payload
        // checksum, so without this check corruption there would load
        // silently (and re-serialize differently, breaking byte identity).
        if u32_at(12) != 0 || u64_at(56) != 0 {
            return Err(ServeError::Malformed("reserved header fields"));
        }
        let header = Self {
            version,
            payload_len: usize_at(16)?,
            checksum: u64_at(24),
            theta_offset: usize_at(32)?,
            theta_rows: usize_at(40)?,
            theta_cols: usize_at(48)?,
        };
        // Every arithmetic step below is checked: the header fields are
        // attacker-controlled (not covered by the payload checksum), and a
        // wrapping add would let an absurd offset slip past the bound.
        if HEADER_LEN
            .checked_add(header.payload_len)
            .is_none_or(|expected| bytes.len() != expected)
        {
            return Err(ServeError::Truncated);
        }
        let theta_bytes = header
            .theta_rows
            .checked_mul(header.theta_cols)
            .and_then(|n| n.checked_mul(8))
            .ok_or(ServeError::Malformed("header Θ geometry"))?;
        let theta_end = header
            .theta_offset
            .checked_add(theta_bytes)
            .ok_or(ServeError::Malformed("header Θ geometry"))?;
        if !header.theta_offset.is_multiple_of(8)
            || header.theta_offset < HEADER_LEN
            || theta_end > bytes.len()
        {
            return Err(ServeError::Malformed("header Θ geometry"));
        }
        Ok(header)
    }

    /// The header bytes [`Self::parse`] reads back (reserved fields zero).
    fn to_bytes(self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[..8].copy_from_slice(&MAGIC);
        h[8..12].copy_from_slice(&self.version.to_le_bytes());
        let fields = [
            (16, self.payload_len as u64),
            (24, self.checksum),
            (32, self.theta_offset as u64),
            (40, self.theta_rows as u64),
            (48, self.theta_cols as u64),
        ];
        for (at, v) in fields {
            h[at..at + 8].copy_from_slice(&v.to_le_bytes());
        }
        h
    }

    /// Verifies the payload checksum of `bytes` (the full file buffer).
    pub fn verify_checksum(&self, bytes: &[u8]) -> Result<(), ServeError> {
        let got = fnv1a64(&bytes[HEADER_LEN..]);
        if got != self.checksum {
            return Err(ServeError::ChecksumMismatch {
                expected: self.checksum,
                got,
            });
        }
        Ok(())
    }
}

/// Decodes the network and model out of a whole snapshot buffer whose
/// header was parsed (the checksum is verified separately).
fn decode_payload(header: &Header, bytes: &[u8]) -> Result<(HinGraph, GenClusModel), ServeError> {
    let mut r = ByteReader::new(&bytes[HEADER_LEN..]);
    // Version dispatch: the header selects the graph decoder. The model
    // section is layout-stable across both versions.
    let graph = match header.version {
        1 => HinGraph::from_bytes_v1(&mut r),
        _ => HinGraph::from_bytes(&mut r),
    }
    .ok_or(ServeError::Malformed("network"))?;
    r.align8().ok_or(ServeError::Malformed("padding"))?;
    let model = GenClusModel::from_bytes(&mut r).ok_or(ServeError::Malformed("model"))?;
    cross_check(header, &graph, &model)?;
    Ok((graph, model))
}

/// Cross-checks between header, graph, and model. The kind/shape check per
/// (attribute, component) pair matters because the EM and fold-in kernels
/// match on the pair and treat a mismatch as unreachable.
fn cross_check(header: &Header, graph: &HinGraph, model: &GenClusModel) -> Result<(), ServeError> {
    let kinds_match = model.attributes.len() == model.components.len()
        && model
            .attributes
            .iter()
            .zip(&model.components)
            .all(|(&a, comp)| {
                a.index() < graph.schema().n_attributes()
                    && match (&graph.schema().attribute(a).kind, comp) {
                        (
                            genclus_hin::AttributeKind::Categorical { vocab_size },
                            genclus_core::ClusterComponents::Categorical(c),
                        ) => c.vocab_size() == *vocab_size,
                        (
                            genclus_hin::AttributeKind::Numerical,
                            genclus_core::ClusterComponents::Gaussian(_),
                        ) => true,
                        _ => false,
                    }
            });
    if model.theta.n_objects() != graph.n_objects()
        || model.theta.n_objects() != header.theta_rows
        || model.theta.n_clusters() != header.theta_cols
        || model.gamma.len() != graph.schema().n_relations()
        || !kinds_match
    {
        return Err(ServeError::Malformed("model/network cross-check"));
    }
    Ok(())
}

/// A fully loaded snapshot: the raw aligned buffer plus the decoded
/// network and model.
pub struct Snapshot {
    bytes: AlignedBytes,
    header: Header,
    graph: HinGraph,
    model: GenClusModel,
}

impl Snapshot {
    /// Parses, checksums, and decodes a snapshot from raw bytes (copied
    /// once into aligned storage).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ServeError> {
        let header = Header::parse(bytes)?;
        Self::decode(AlignedBytes::copy_from(bytes), header)
    }

    /// Reads and decodes a snapshot file: one read into aligned storage,
    /// then checksum ∥ decode.
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        let bytes = AlignedBytes::read_file(path)?;
        let header = Header::parse(bytes.as_slice())?;
        Self::decode(bytes, header)
    }

    /// The snapshot of a network and model already in hand: encodes once
    /// and keeps the encoded bytes as the raw buffer. Equal in every
    /// observable to `from_bytes(&to_bytes(graph, model))` without the
    /// second checksum pass or the decode; an appended graph needs no
    /// preparation, since `append` leaves it canonical.
    pub(crate) fn from_parts(graph: HinGraph, model: GenClusModel) -> Result<Self, ServeError> {
        let (bytes, header) = encode(&graph, &model);
        cross_check(&header, &graph, &model)?;
        Ok(Self {
            bytes: AlignedBytes::from_vec(bytes),
            header,
            graph,
            model,
        })
    }

    /// Decodes the network and model out of `bytes` while a scoped helper
    /// thread verifies the payload checksum. Both finish before anything
    /// is returned, and a checksum mismatch outranks a decode error.
    fn decode(bytes: AlignedBytes, header: Header) -> Result<Self, ServeError> {
        let buf = bytes.as_slice();
        let (graph, model) = std::thread::scope(|s| {
            let helper =
                std::thread::Builder::new().spawn_scoped(s, || header.verify_checksum(buf));
            let decoded = decode_payload(&header, buf);
            let verified = match helper {
                // A helper that panicked proved nothing: verify again here.
                Ok(h) => h.join().unwrap_or_else(|_| header.verify_checksum(buf)),
                Err(_) => header.verify_checksum(buf),
            };
            verified.and(decoded)
        })?;
        Ok(Self {
            bytes,
            header,
            graph,
            model,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> Header {
        self.header
    }

    /// The decoded network.
    pub fn graph(&self) -> &HinGraph {
        &self.graph
    }

    /// The decoded model.
    pub fn model(&self) -> &GenClusModel {
        &self.model
    }

    /// Consumes the snapshot, yielding the owned network and model.
    pub fn into_parts(self) -> (HinGraph, GenClusModel) {
        (self.graph, self.model)
    }

    /// The raw file bytes (aligned).
    pub fn raw_bytes(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    /// Zero-copy view of the `Θ` matrix straight out of the file buffer:
    /// row-major, `theta_rows × theta_cols`, no per-entry decode and no
    /// extra allocation. The buffer is 8-aligned by construction and the
    /// writer 8-aligns the Θ payload, so the reinterpretation is exact.
    /// The geometry product was validated with checked arithmetic (and
    /// `usize::try_from` on every header size) in [`Header::parse`], so
    /// the multiplication below cannot overflow or escape the buffer.
    ///
    /// The format is little-endian; on a big-endian target this view is not
    /// available (use [`Snapshot::model`], whose decoded matrix is
    /// endian-correct everywhere).
    #[cfg(target_endian = "little")]
    pub fn theta_view(&self) -> &[f64] {
        let n = self.header.theta_rows * self.header.theta_cols;
        let raw =
            &self.bytes.as_slice()[self.header.theta_offset..self.header.theta_offset + n * 8];
        // SAFETY: the slice starts 8-aligned (both `AlignedBytes` storages
        // start 8-aligned + offset validated to be a multiple of 8) and
        // covers exactly n f64s; any bit pattern is a valid f64.
        let (prefix, mid, suffix) = unsafe { raw.align_to::<f64>() };
        debug_assert!(prefix.is_empty() && suffix.is_empty());
        mid
    }

    /// One membership row out of the zero-copy view.
    #[cfg(target_endian = "little")]
    pub fn theta_row(&self, v: usize) -> &[f64] {
        let k = self.header.theta_cols;
        &self.theta_view()[v * k..(v + 1) * k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genclus_core::attr_model::{ClusterComponents, GaussianComponents};
    use genclus_hin::{HinBuilder, ObjectId, Schema};
    use genclus_stats::MembershipMatrix;

    /// The unbuilt history of `tiny()`'s network.
    fn tiny_builder() -> HinBuilder {
        let mut s = Schema::new();
        let t = s.add_object_type("sensor");
        let nn = s.add_relation("nn", t, t);
        let reading = s.add_numerical_attribute("reading");
        let mut b = HinBuilder::new(s);
        let v0 = b.add_object(t, "s0");
        let v1 = b.add_object(t, "s1");
        let v2 = b.add_object(t, "s2");
        b.add_link(v0, v1, nn, 1.0).unwrap();
        b.add_link(v1, v2, nn, 2.0).unwrap();
        b.add_numeric(v0, reading, -1.0).unwrap();
        b.add_numeric(v2, reading, 1.0).unwrap();
        b
    }

    fn tiny() -> (HinGraph, GenClusModel) {
        let graph = tiny_builder().build().unwrap();
        let reading = graph.schema().attribute_by_name("reading").unwrap();
        let model = GenClusModel {
            theta: MembershipMatrix::from_rows(
                &[vec![0.9, 0.1], vec![0.5, 0.5], vec![0.2, 0.8]],
                2,
            ),
            gamma: vec![1.25],
            components: vec![ClusterComponents::Gaussian(
                GaussianComponents::from_params(vec![-1.0, 1.0], vec![0.5, 0.5], 1e-6),
            )],
            attributes: vec![reading],
            theta_smoothing: 0.05,
        };
        (graph, model)
    }

    #[test]
    fn round_trip_and_zero_copy_view() {
        let (graph, model) = tiny();
        let bytes = to_bytes(&graph, &model);
        let snap = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.graph().n_objects(), 3);
        assert_eq!(snap.model().gamma, model.gamma);
        assert_eq!(snap.model().theta, model.theta);
        assert_eq!(snap.model().theta_smoothing, 0.05);
        // Zero-copy view equals the decoded matrix exactly.
        let view = snap.theta_view();
        assert_eq!(view, model.theta.as_slice());
        assert_eq!(snap.theta_row(2), model.theta.row(2));
        // Re-serialization is byte-identical.
        let again = to_bytes(snap.graph(), snap.model());
        assert_eq!(again, bytes);
    }

    #[test]
    fn save_and_load_files() {
        let (graph, model) = tiny();
        let dir = std::env::temp_dir().join("genclus-serve-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.gcsnap");
        save(&path, &graph, &model).unwrap();
        let snap = Snapshot::load(&path).unwrap();
        assert_eq!(snap.model().theta, model.theta);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_path_syncs_before_and_after_the_rename() {
        // The injectable stage seam records the durability checkpoints in
        // order: the temp file must be fully synced *before* the rename
        // and the directory entry *after* it — a crash at any point leaves
        // either the old snapshot or the complete new one, never a
        // renamed-but-empty file.
        let dir = std::env::temp_dir().join("genclus-serve-durable-save-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.gcsnap");
        std::fs::write(&path, b"previous contents").unwrap();

        let mut stages = Vec::new();
        atomic_write_durable(&path, b"new contents", &mut |s| {
            stages.push(s);
            Ok(())
        })
        .unwrap();
        assert_eq!(stages, ["tmp-synced", "renamed", "dir-synced"]);
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        // No temp file is left behind.
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .contains(".tmp-")
            })
            .collect();
        assert!(strays.is_empty(), "stray temp files: {strays:?}");

        // A crash between the temp-file sync and the rename (the stage
        // callback erroring there simulates it) leaves the target file
        // untouched.
        let err = atomic_write_durable(&path, b"never lands", &mut |s| {
            if s == "tmp-synced" {
                Err(std::io::Error::other("simulated crash"))
            } else {
                Ok(())
            }
        });
        assert!(err.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tagged_save_is_durable_and_separates_same_process_writers() {
        // Regression for the `--metrics-dump` durability hole: the dump
        // used to go through raw `fs::write` + `rename` with no fsync. It
        // now routes through this helper, so it must follow the same
        // sync'd-before-rename discipline as snapshots, and two tags must
        // use distinct temp paths (the periodic dumper and the final dump
        // at exit share one pid and can overlap).
        let dir = std::env::temp_dir().join("genclus-serve-tagged-save-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");

        let mut stages = Vec::new();
        let mut tmp_seen = String::new();
        atomic_write_durable_tagged(&path, b"{\"a\":1}\n", ".tmp-final", &mut |s| {
            stages.push(s);
            if s == "tmp-synced" {
                // The temp file (still on disk at this stage) carries the tag.
                for e in std::fs::read_dir(&dir)? {
                    let name = e?.file_name().to_string_lossy().into_owned();
                    if name.contains("-final-") {
                        tmp_seen = name;
                    }
                }
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(stages, ["tmp-synced", "renamed", "dir-synced"]);
        assert!(
            tmp_seen.contains(".tmp-final-"),
            "temp name should embed the tag, saw {tmp_seen:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"a\":1}\n");

        // The public entry point lands content the same way.
        save_bytes_tagged(&path, b"{\"a\":2}\n", ".tmp").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"a\":2}\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_errors_are_distinguished() {
        let (graph, model) = tiny();
        let bytes = to_bytes(&graph, &model);

        // Not a snapshot.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(ServeError::BadMagic)
        ));

        // Future schema version.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(ServeError::UnsupportedVersion { found: 99, .. })
        ));

        // Truncation.
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..bytes.len() - 1]),
            Err(ServeError::Truncated)
        ));
        assert!(matches!(
            Snapshot::from_bytes(&bytes[..10]),
            Err(ServeError::Truncated)
        ));

        // Payload corruption is caught by the checksum.
        let mut bad = bytes.clone();
        let mid = HEADER_LEN + (bad.len() - HEADER_LEN) / 2;
        bad[mid] ^= 0xff;
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(ServeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn tampered_theta_offset_cannot_overflow_past_validation() {
        // The Θ geometry fields live in the header, *outside* the payload
        // checksum — a wrapping add here would let an absurd offset pass
        // the bound and panic later in theta_view().
        let (graph, model) = tiny();
        let bytes = to_bytes(&graph, &model);
        let mut bad = bytes.clone();
        // theta_offset := usize::MAX - 7 (8-aligned, ≥ HEADER_LEN).
        bad[32..40].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(ServeError::Malformed(_))
        ));
        // Huge payload_len must not wrap the expected-length check either.
        let mut bad = bytes.clone();
        bad[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(ServeError::Truncated)
        ));
        // Θ geometry whose product overflows (checked multiply, not wrap):
        // rows × cols × 8 ≫ usize::MAX while each factor alone fits.
        let mut bad = bytes.clone();
        bad[40..48].copy_from_slice(&(u64::MAX / 16).to_le_bytes());
        bad[48..56].copy_from_slice(&(u64::MAX / 16).to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(ServeError::Malformed(_))
        ));
    }

    #[test]
    fn aligned_bytes_is_eight_aligned() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 1000] {
            let a = AlignedBytes::zeroed(len);
            assert_eq!(a.len(), len);
            assert_eq!(a.as_slice().as_ptr() as usize % 8, 0);
        }
        let a = AlignedBytes::copy_from(&[1, 2, 3]);
        assert_eq!(a.as_slice(), &[1, 2, 3]);
        assert!(!a.is_empty());
    }

    #[test]
    fn from_vec_adopts_an_aligned_buffer_and_copies_an_unaligned_one() {
        let v: Vec<u8> = (0..=255).collect();
        let ptr = v.as_ptr();
        let a = AlignedBytes::from_vec(v.clone());
        assert_eq!(a.as_slice(), &v[..]);
        assert_eq!(a.as_slice().as_ptr() as usize % 8, 0);
        let adopted = AlignedBytes::from_vec(v);
        if (ptr as usize).is_multiple_of(8) {
            assert_eq!(
                adopted.as_slice().as_ptr(),
                ptr,
                "aligned buffers are not copied"
            );
        }
        // An empty Vec's dangling pointer is only 1-aligned: copied.
        let empty = AlignedBytes::from_vec(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.as_slice().as_ptr() as usize % 8, 0);
    }

    /// The links `grown()` appends to `tiny()`, by object index: a new
    /// object linking an old one, an old object linking a new one (an
    /// old-source link, and an in-link of the new object), and two new
    /// objects linking each other.
    const GROWN_LINKS: [(u32, u32, f64); 5] = [
        (3, 2, 0.5),
        (0, 3, 1.5),
        (2, 4, 3.0),
        (3, 4, 2.5),
        (4, 3, 0.25),
    ];

    /// `tiny()` grown by `GROWN_LINKS`, two new objects and one reading.
    fn grown() -> (HinGraph, GenClusModel) {
        let (mut graph, tiny_model) = tiny();
        let t = graph.schema().object_type_by_name("sensor").unwrap();
        let nn = graph.schema().relation_by_name("nn").unwrap();
        let reading = graph.schema().attribute_by_name("reading").unwrap();
        let mut d = genclus_hin::GraphDelta::new(&graph);
        d.add_object(t, "s3");
        let s4 = d.add_object(t, "s4");
        for (src, dst, w) in GROWN_LINKS {
            d.add_link(ObjectId(src), ObjectId(dst), nn, w).unwrap();
        }
        d.add_numeric(s4, reading, 0.75).unwrap();
        graph.append(d).unwrap();
        let model = GenClusModel {
            theta: MembershipMatrix::from_rows(
                &[
                    vec![0.9, 0.1],
                    vec![0.5, 0.5],
                    vec![0.2, 0.8],
                    vec![0.3, 0.7],
                    vec![0.6, 0.4],
                ],
                2,
            ),
            ..tiny_model
        };
        (graph, model)
    }

    /// `grown()`'s network built from scratch in one sitting.
    fn grown_rebuilt() -> HinGraph {
        let mut b = tiny_builder();
        let t = b.schema().object_type_by_name("sensor").unwrap();
        let nn = b.schema().relation_by_name("nn").unwrap();
        let reading = b.schema().attribute_by_name("reading").unwrap();
        b.add_object(t, "s3");
        let s4 = b.add_object(t, "s4");
        for (src, dst, w) in GROWN_LINKS {
            b.add_link(ObjectId(src), ObjectId(dst), nn, w).unwrap();
        }
        b.add_numeric(s4, reading, 0.75).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn from_parts_matches_a_decoded_round_trip() {
        let (graph, model) = grown();
        let decoded = Snapshot::from_bytes(&to_bytes(&grown_rebuilt(), &model)).unwrap();
        let built = Snapshot::from_parts(graph, model).unwrap();
        // Raw bytes, header and checksum.
        assert_eq!(built.raw_bytes(), decoded.raw_bytes());
        assert_eq!(built.header(), decoded.header());
        built.header().verify_checksum(built.raw_bytes()).unwrap();
        // Θ view, bit for bit, and its 8-alignment.
        assert_eq!(built.theta_view().as_ptr() as usize % 8, 0);
        let bits = |s: &Snapshot| {
            s.theta_view()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&built), bits(&decoded));
        // Re-encoding either gives the same bytes.
        assert_eq!(to_bytes(built.graph(), built.model()), decoded.raw_bytes());
        assert_eq!(
            to_bytes(decoded.graph(), decoded.model()),
            decoded.raw_bytes()
        );
        // Name lookups and adjacency.
        let (g, h) = (built.graph(), decoded.graph());
        assert_eq!(g.n_objects(), 5);
        for v in h.objects() {
            let name = h.object_name(v);
            assert_eq!(g.object_by_name(name), Some(v), "{name}");
            assert!(g.out_links(v).eq(h.out_links(v)), "out-links of {name}");
            assert_eq!(g.in_links(v), h.in_links(v), "in-links of {name}");
        }
        // Model parameters.
        let (m, n) = (built.model(), decoded.model());
        assert_eq!(m.components, n.components);
        assert_eq!(m.gamma, n.gamma);
        assert_eq!(m.attributes, n.attributes);
        assert_eq!(m.theta, n.theta);
        assert_eq!(m.theta_smoothing.to_bits(), n.theta_smoothing.to_bits());
    }

    #[test]
    fn from_parts_rejects_a_model_that_does_not_fit_the_network() {
        let (graph, model) = grown();
        let (_, short) = tiny(); // 3 Θ rows for a 5-object network
        assert!(Snapshot::from_parts(graph.clone(), model).is_ok());
        assert!(matches!(
            Snapshot::from_parts(graph, short),
            Err(ServeError::Malformed(_))
        ));
    }

    /// `bytes` with its header checksum recomputed over the payload.
    fn rechecksummed(mut bytes: Vec<u8>) -> Vec<u8> {
        let sum = fnv1a64(&bytes[HEADER_LEN..]);
        bytes[24..32].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Offset of the only occurrence of `needle` in `hay`.
    fn unique_offset(hay: &[u8], needle: &[u8]) -> usize {
        let hits: Vec<usize> = hay
            .windows(needle.len())
            .enumerate()
            .filter(|(_, w)| *w == needle)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits.len(), 1, "needle must occur exactly once");
        hits[0]
    }

    #[test]
    fn checksum_mismatch_outranks_decode_errors() {
        let (graph, model) = tiny();
        let bytes = to_bytes(&graph, &model);
        let dir = std::env::temp_dir().join(format!(
            "genclus-serve-corrupt-precedence-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.gcsnap");

        // A length prefix: the payload opens with the object-type count.
        let mut count = bytes.clone();
        count[HEADER_LEN + 7] = 0x7f;
        // A link endpoint: the out-link endpoints `[1, 2]`, right after
        // their `u64` count of 2, point at 3 objects; 127 is out of range.
        let needle = [2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0];
        let mut endpoint = bytes.clone();
        endpoint[unique_offset(&bytes, &needle) + 8] = 0x7f;

        for (what, bad) in [("length prefix", count), ("link endpoint", endpoint)] {
            // With its checksum patched, the flip is a decode error…
            assert!(
                matches!(
                    Snapshot::from_bytes(&rechecksummed(bad.clone())),
                    Err(ServeError::Malformed("network"))
                ),
                "{what}: patched flip must fail the decode"
            );
            // …but as found on disk the checksum names it, through both
            // entry points.
            assert!(
                matches!(
                    Snapshot::from_bytes(&bad),
                    Err(ServeError::ChecksumMismatch { .. })
                ),
                "{what}: from_bytes"
            );
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(
                    Snapshot::load(&path),
                    Err(ServeError::ChecksumMismatch { .. })
                ),
                "{what}: load"
            );
        }

        // Truncated and extended files keep failing on the length check.
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(matches!(Snapshot::load(&path), Err(ServeError::Truncated)));
        let mut longer = bytes.clone();
        longer.extend_from_slice(&[0; 8]);
        std::fs::write(&path, &longer).unwrap();
        assert!(matches!(Snapshot::load(&path), Err(ServeError::Truncated)));
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap().raw_bytes(), &bytes[..]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_single_byte_payload_flip_is_a_checksum_mismatch() {
        // FNV-1a maps every single-byte change to a different hash, so the
        // checksum catches each of these; the decode runs on the corrupt
        // bytes concurrently and must neither panic nor win the race.
        let (graph, model) = grown();
        let bytes = to_bytes(&graph, &model);
        for at in HEADER_LEN..bytes.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[at] ^= mask;
                assert!(
                    matches!(
                        Snapshot::from_bytes(&bad),
                        Err(ServeError::ChecksumMismatch { .. })
                    ),
                    "flip {mask:#04x} at {at}"
                );
            }
        }
    }

    /// Two object types, two relations, and both attribute kinds, so every
    /// section of the graph codec carries data.
    fn mixed() -> (HinGraph, GenClusModel) {
        use genclus_core::attr_model::CategoricalComponents;
        let mut s = Schema::new();
        let a = s.add_object_type("author");
        let p = s.add_object_type("paper");
        let w = s.add_relation("write", a, p);
        let wb = s.add_relation("written_by", p, a);
        let text = s.add_categorical_attribute("text", 4);
        let year = s.add_numerical_attribute("year");
        let mut b = HinBuilder::new(s);
        let a0 = b.add_object(a, "alice");
        let a1 = b.add_object(a, "bob");
        let p0 = b.add_object(p, "p0");
        let p1 = b.add_object(p, "p1");
        b.add_link_pair(a0, p0, w, wb, 1.0).unwrap();
        b.add_link_pair(a1, p1, w, wb, 0.5).unwrap();
        b.add_terms(p0, text, &[0, 2, 2]).unwrap();
        b.add_terms(p1, text, &[1, 3]).unwrap();
        b.add_numeric(p0, year, 2012.0).unwrap();
        b.add_numeric(p1, year, 2013.0).unwrap();
        let graph = b.build().unwrap();
        let model = GenClusModel {
            theta: MembershipMatrix::from_rows(
                &[
                    vec![0.9, 0.1],
                    vec![0.2, 0.8],
                    vec![0.7, 0.3],
                    vec![0.4, 0.6],
                ],
                2,
            ),
            gamma: vec![1.0, 0.5],
            components: vec![
                ClusterComponents::Categorical(CategoricalComponents::from_rows(
                    &[vec![0.4, 0.1, 0.4, 0.1], vec![0.1, 0.4, 0.1, 0.4]],
                    1e-9,
                )),
                ClusterComponents::Gaussian(GaussianComponents::from_params(
                    vec![2012.0, 2013.0],
                    vec![0.5, 0.5],
                    1e-6,
                )),
            ],
            attributes: vec![text, year],
            theta_smoothing: 0.05,
        };
        (graph, model)
    }

    #[test]
    fn decode_of_corrupt_payloads_never_panics() {
        // The decode now runs before the checksum verdict is in, so it sees
        // corrupt bytes routinely. Re-checksummed corruptions reach it
        // whole: one to four random byte writes, 3000 times, must each
        // come back as a value or an error.
        let (graph, model) = mixed();
        let bytes = to_bytes(&graph, &model);
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..3000 {
            let mut bad = bytes.clone();
            for _ in 0..1 + next() % 4 {
                let at = HEADER_LEN + (next() as usize) % (bad.len() - HEADER_LEN);
                bad[at] = next() as u8;
            }
            let _ = Snapshot::from_bytes(&rechecksummed(bad));
        }
    }

    #[cfg(unix)]
    #[test]
    fn load_reads_a_pipe_whose_metadata_has_no_length() {
        // A FIFO reports length 0: the sized read takes nothing and the
        // tail read brings in the whole snapshot.
        let (graph, model) = tiny();
        let bytes = to_bytes(&graph, &model);
        let dir = std::env::temp_dir().join(format!("genclus-serve-fifo-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.fifo");
        let made = std::process::Command::new("mkfifo").arg(&path).status();
        if !made.is_ok_and(|s| s.success()) {
            std::fs::remove_dir_all(&dir).ok();
            return; // no mkfifo on this system
        }
        let writer = {
            let (path, bytes) = (path.clone(), bytes.clone());
            std::thread::spawn(move || std::fs::write(path, bytes).unwrap())
        };
        let snap = Snapshot::load(&path).unwrap();
        writer.join().unwrap();
        assert_eq!(snap.raw_bytes(), &bytes[..]);
        assert_eq!(snap.theta_view(), model.theta.as_slice());
        std::fs::remove_dir_all(&dir).ok();
    }
}
