//! Replays the regression corpus in `tests/corpus/` against today's code.
//!
//! Every input that ever mattered — hand-written adversarial cases and
//! distilled fuzz findings — is kept on disk and replayed here, so a decode
//! surface can never quietly regress on an input it already survived once.
//! Expectations are encoded in file names:
//!
//! * `corpus/snapshot/*_valid.bin` must decode and round-trip bit-identically;
//!   every other `.bin` must be rejected with `CorruptSnapshot` (no panics),
//!   and a `*length_mismatch*` case by the exact-length check;
//! * `corpus/snapshot_files/*.snap` are whole files as a crash can leave
//!   them on disk (torn writes, zeroed pages, trailing garbage); read back
//!   through `CsrGraph::read_from_path`, `*_valid.snap` must round-trip
//!   bit-identically and everything else must be rejected with the typed
//!   `CorruptSnapshot` — never a panic, never an untyped error. Each frozen
//!   `*_version<N>.snap` is a valid file of retired format version `N`,
//!   which must be rejected by the version check;
//! * `corpus/edge_list/*_valid.txt` must parse; `*_malformed_l<N>.txt` must
//!   fail with `MalformedLine` on line `N`; `*_invalid.txt` must fail with a
//!   builder-level error (the text itself is well-formed);
//! * `corpus/programs/*.bin` are byte programs for the shared model-based
//!   interpreter (`avglocal_integration_tests::fuzz::run_program`) and must
//!   complete with zero divergences.
//!
//! The binary snapshot cases are derived from the real codec; run the
//! `#[ignore]`d `regenerate_derived_corpus` test to rewrite them after a
//! deliberate format change. It never writes a frozen `*_version<N>.snap`.

use std::fs;
use std::path::{Path, PathBuf};

use avglocal::graph::io::from_edge_list;
use avglocal::graph::snapshot::checksum;
use avglocal::graph::{generators, CsrGraph, GraphError};
use avglocal_integration_tests::fuzz::run_program;

fn corpus_dir(kind: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus").join(kind)
}

/// All corpus files of `kind` with the given extension, sorted for
/// deterministic replay order.
fn corpus_files(kind: &str, extension: &str) -> Vec<PathBuf> {
    let dir = corpus_dir(kind);
    let entries = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus directory {} missing: {e}", dir.display()));
    let mut files: Vec<PathBuf> = entries
        .map(|entry| entry.expect("corpus directory is readable").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == extension))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .{extension} corpus files in {}", dir.display());
    files
}

fn stem(path: &Path) -> &str {
    path.file_stem().and_then(|s| s.to_str()).expect("corpus file names are UTF-8")
}

#[test]
fn snapshot_corpus_replays_clean() {
    for path in corpus_files("snapshot", "bin") {
        let name = stem(&path).to_string();
        let bytes = fs::read(&path).expect("corpus file is readable");
        match CsrGraph::from_bytes(&bytes) {
            Ok(decoded) => {
                assert!(name.ends_with("_valid"), "{name}: corrupt case unexpectedly accepted");
                assert_eq!(decoded.to_bytes(), bytes, "{name}: round-trip not bit-identical");
            }
            Err(GraphError::CorruptSnapshot { offset, reason }) => {
                assert!(
                    !name.ends_with("_valid"),
                    "{name}: valid case rejected at byte {offset}: {reason}"
                );
                assert!(offset <= bytes.len(), "{name}: error offset outside the input");
                if name.contains("length_mismatch") {
                    assert!(reason.contains("does not match the"), "{name}: {reason}");
                }
            }
            Err(other) => panic!("{name}: unexpected error variant: {other}"),
        }
    }
}

#[test]
fn snapshot_file_corpus_replays_clean() {
    for path in corpus_files("snapshot_files", "snap") {
        let name = stem(&path).to_string();
        let bytes = fs::read(&path).expect("corpus file is readable");
        match CsrGraph::read_from_path(&path) {
            Ok(decoded) => {
                assert!(name.ends_with("_valid"), "{name}: torn file unexpectedly accepted");
                assert_eq!(decoded.to_bytes(), bytes, "{name}: round-trip not bit-identical");
            }
            Err(GraphError::CorruptSnapshot { offset, reason }) => {
                assert!(
                    !name.ends_with("_valid"),
                    "{name}: valid file rejected at byte {offset}: {reason}"
                );
                assert!(offset <= bytes.len(), "{name}: error offset outside the file");
                if let Some((_, version)) = name.rsplit_once("_version") {
                    let expected = format!("unsupported format version {version},");
                    assert!(reason.contains(&expected), "{name}: {reason}");
                }
            }
            Err(other) => panic!("{name}: expected CorruptSnapshot, got: {other}"),
        }
    }
}

#[test]
fn edge_list_corpus_replays_clean() {
    for path in corpus_files("edge_list", "txt") {
        let name = stem(&path).to_string();
        let text = fs::read_to_string(&path).expect("corpus file is readable");
        let result = from_edge_list(&text);
        if name.ends_with("_valid") {
            let graph = result.unwrap_or_else(|e| panic!("{name}: valid case rejected: {e}"));
            assert!(graph.node_count() > 0, "{name}: valid case decoded to nothing");
        } else if let Some((_, line)) = name.rsplit_once("_malformed_l") {
            let expected: usize = line.parse().expect("file name encodes the expected line");
            match result {
                Err(GraphError::MalformedLine { line, .. }) => {
                    assert_eq!(line, expected, "{name}: wrong line reported");
                }
                other => panic!("{name}: expected MalformedLine on line {expected}, got {other:?}"),
            }
        } else {
            match result {
                Err(GraphError::MalformedLine { line, reason }) => {
                    panic!(
                        "{name}: structurally valid text reported MalformedLine {line}: {reason}"
                    )
                }
                Err(_) => {}
                Ok(_) => panic!("{name}: invalid case unexpectedly accepted"),
            }
        }
    }
}

#[test]
fn program_corpus_replays_with_zero_divergences() {
    for path in corpus_files("programs", "bin") {
        let bytes = fs::read(&path).expect("corpus file is readable");
        if let Err(divergence) = run_program(&bytes) {
            panic!("{}: {divergence}", stem(&path));
        }
    }
}

/// Re-checksums a derived corrupt case with the codec's own checksum, so
/// corruption *behind* a valid checksum exercises the structural validators
/// instead of the integrity check.
fn fix_checksum(bytes: &mut [u8]) {
    let checksum = checksum(&bytes[20..]).to_le_bytes();
    bytes[12..20].copy_from_slice(&checksum);
}

/// Rewrites the derived snapshot corpus from the current codec. Run with
/// `cargo test --test fuzz_regressions -- --ignored regenerate` after a
/// deliberate format change; the hand-written text corpus is never touched.
#[test]
#[ignore = "writes the derived corpus files; run explicitly after format changes"]
fn regenerate_derived_corpus() {
    let dir = corpus_dir("snapshot");
    fs::create_dir_all(&dir).expect("corpus directory is writable");
    let ring = generators::cycle(6).unwrap().freeze();
    let base = ring.to_bytes();
    fs::write(dir.join("ring6_valid.bin"), &base).unwrap();

    let disconnected = avglocal::graph::GraphBuilder::new()
        .nodes([7, 3, 11, 5, 2])
        .edges([(7, 3), (5, 2)])
        .build()
        .unwrap()
        .freeze();
    fs::write(dir.join("disconnected5_valid.bin"), disconnected.to_bytes()).unwrap();
    fs::write(dir.join("empty_valid.bin"), avglocal::graph::Graph::new().freeze().to_bytes())
        .unwrap();

    fs::write(dir.join("truncated_header.bin"), &base[..30]).unwrap();
    fs::write(dir.join("truncated_body.bin"), &base[..base.len() - 5]).unwrap();

    let mut bad_magic = base.clone();
    bad_magic[..8].copy_from_slice(b"NOTASNAP");
    fs::write(dir.join("bad_magic.bin"), &bad_magic).unwrap();

    let mut bad_version = base.clone();
    bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
    fix_checksum(&mut bad_version);
    fs::write(dir.join("unsupported_version.bin"), &bad_version).unwrap();

    // Trailing bytes behind a re-fixed checksum: every count is consistent,
    // so only the exact-length check can reject it.
    let mut length_mismatch = base.clone();
    length_mismatch.extend_from_slice(&[0; 8]);
    fix_checksum(&mut length_mismatch);
    fs::write(dir.join("length_mismatch.bin"), &length_mismatch).unwrap();

    let mut bitflip = base.clone();
    bitflip[base.len() / 2] ^= 0x10;
    fs::write(dir.join("bitflip_unchecksummed.bin"), &bitflip).unwrap();

    let mut odd_edges = base.clone();
    odd_edges[28..36].copy_from_slice(&13u64.to_le_bytes());
    fix_checksum(&mut odd_edges);
    fs::write(dir.join("odd_edge_count.bin"), &odd_edges).unwrap();

    let mut huge_counts = base.clone();
    huge_counts[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
    fix_checksum(&mut huge_counts);
    fs::write(dir.join("huge_node_count.bin"), &huge_counts).unwrap();

    // Node 0's first neighbour (node 1) rewritten to 3: 0 lists 3 but 3
    // does not list 0 — asymmetry behind a valid checksum.
    let targets_at = 36 + 4 * (ring.node_count() + 1);
    let mut asymmetric = base.clone();
    asymmetric[targets_at..targets_at + 4].copy_from_slice(&3u32.to_le_bytes());
    fix_checksum(&mut asymmetric);
    fs::write(dir.join("asymmetric_adjacency.bin"), &asymmetric).unwrap();

    // The on-disk torn-write corpus: whole files shaped like what a crash
    // can leave behind for `CsrGraph::read_from_path` (the atomic-rename
    // writer makes most of these unreachable in our own store, but recovery
    // must survive foreign or pre-hardening files too).
    let files = corpus_dir("snapshot_files");
    fs::create_dir_all(&files).expect("corpus directory is writable");
    let snap = generators::cycle(8).unwrap().freeze().to_bytes();
    fs::write(files.join("ring8_valid.snap"), &snap).unwrap();
    fs::write(files.join("crash_before_write_empty.snap"), b"").unwrap();
    fs::write(files.join("torn_after_one_byte.snap"), &snap[..1]).unwrap();
    fs::write(files.join("torn_mid_header.snap"), &snap[..16]).unwrap();
    fs::write(files.join("torn_half.snap"), &snap[..snap.len() / 2]).unwrap();
    fs::write(files.join("torn_tail.snap"), &snap[..snap.len() - 5]).unwrap();

    let mut padded = snap.clone();
    padded.extend_from_slice(&snap[..7]);
    fs::write(files.join("trailing_garbage.snap"), &padded).unwrap();

    // A page of zeros mid-file at full length — the classic torn sector.
    let mut zeroed = snap.clone();
    let from = zeroed.len() / 3;
    let to = (from + 64).min(zeroed.len());
    zeroed[from..to].fill(0);
    fs::write(files.join("zeroed_page.snap"), &zeroed).unwrap();
}
