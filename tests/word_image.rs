//! The paged word image against a per-word reference.
//!
//! The machine's architectural shadow ([`ShadowMem`]) and the workload
//! recorder's logical memory ([`TxRecorder`]) both keep their words in a
//! paged, copy-on-write [`WordImage`]. Here seeded random
//! operations drive both against the simplest possible model, a
//! `HashMap<u64, Word>` of written words. For the shadow, a word that
//! model lacks falls through to [`PmDevice::peek_word`], which reads the
//! media with staged on-PM buffer bytes laid over it; the device under
//! the shadow holds both while the stream runs. Clones taken mid-stream
//! must keep their own contents however the original moves on.
//!
//! The crash verdicts read their images in address order
//! ([`WordImage::iter`]), so the image's iteration is checked against an
//! ordered reference, a `BTreeMap`.

use std::collections::{BTreeMap, HashMap};

use silo::pm::{PmDevice, PmDeviceConfig};
use silo::sim::ShadowMem;
use silo::types::{LineAddr, PhysAddr, Word, WordImage, Xoshiro256, LINE_BYTES, WORD_BYTES};
use silo::workloads::TxRecorder;

/// Image page size: the spans below straddle page boundaries on purpose.
const PAGE: u64 = 4096;

/// The shadow's address span: three image pages, starting mid-page.
const BASE: u64 = 16 * PAGE - PAGE / 2;
const SPAN: u64 = 3 * PAGE;
const LINES: u64 = SPAN / LINE_BYTES as u64;

/// Lines that take half the stores, so they fill up to all 8 words.
const HOT_LINES: u64 = 6;

/// Steps between power failures, which clear the shadow.
const CLEAR_EVERY: usize = 5_000;

type Reference = HashMap<u64, Word>;

fn ref_load(reference: &Reference, addr: PhysAddr, pm: &PmDevice) -> Word {
    let a = addr.word_aligned();
    reference
        .get(&a.as_u64())
        .copied()
        .unwrap_or_else(|| pm.peek_word(a))
}

fn ref_line_image(reference: &Reference, line: LineAddr, pm: &PmDevice) -> [u8; LINE_BYTES] {
    let mut out = [0u8; LINE_BYTES];
    for (i, a) in line.words().enumerate() {
        out[i * WORD_BYTES..(i + 1) * WORD_BYTES]
            .copy_from_slice(&ref_load(reference, a, pm).to_le_bytes());
    }
    out
}

/// A line of the span: a hot one half the time.
fn pick_line(rng: &mut Xoshiro256) -> LineAddr {
    let idx = if rng.percent(50) {
        rng.below(HOT_LINES) * (LINES / HOT_LINES)
    } else {
        rng.below(LINES)
    };
    LineAddr::containing(PhysAddr::new(BASE + idx * LINE_BYTES as u64))
}

/// Any byte address in a [picked](pick_line) line (stores and loads round
/// down to the word).
fn pick_addr(rng: &mut Xoshiro256) -> PhysAddr {
    let line = pick_line(rng);
    line.base().add(rng.below(LINE_BYTES as u64))
}

/// Every word and every line of the span reads the same from `shadow` as
/// from `reference`, both over `pm`.
fn assert_same_image(shadow: &ShadowMem, reference: &Reference, pm: &PmDevice, what: &str) {
    assert_eq!(shadow.len(), reference.len(), "{what}: written word count");
    for idx in 0..LINES {
        let line = LineAddr::containing(PhysAddr::new(BASE + idx * LINE_BYTES as u64));
        assert_eq!(
            shadow.line_image(line, pm),
            ref_line_image(reference, line, pm),
            "{what}: line image of {line}"
        );
        for a in line.words() {
            assert_eq!(
                shadow.load(a, pm),
                ref_load(reference, a, pm),
                "{what}: {a}"
            );
        }
    }
}

#[test]
fn shadow_matches_a_per_word_reference_over_media_and_staged_lines() {
    let mut rng = Xoshiro256::seeded(0x5ad0);
    // A four-line buffer: most device writes force drains to the media, so
    // the span holds media bytes and staged lines at once.
    let mut pm = PmDevice::new(PmDeviceConfig {
        buffer_lines: 4,
        ..PmDeviceConfig::default()
    });
    let mut shadow = ShadowMem::default();
    let mut reference = Reference::new();
    let mut clones: Vec<(ShadowMem, Reference)> = Vec::new();
    // Line images seen with 0, some, and all 8 words written.
    let mut by_written = [0u32; 3];

    for step in 0..20_000 {
        match rng.below(100) {
            0..=29 => {
                let (addr, value) = (pick_addr(&mut rng), Word::new(rng.next_u64()));
                shadow.store(addr, value);
                reference.insert(addr.word_aligned().as_u64(), value);
            }
            30..=39 => {
                let (addr, value) = (pick_addr(&mut rng), Word::new(rng.next_u64()));
                let want = ref_load(&reference, addr, &pm);
                assert_eq!(shadow.replace(addr, value, &pm), want, "replace at {addr}");
                reference.insert(addr.word_aligned().as_u64(), value);
            }
            40..=54 | 97..=98 => {
                let addr = pick_addr(&mut rng);
                assert_eq!(shadow.load(addr, &pm), ref_load(&reference, addr, &pm));
            }
            55..=74 => {
                let line = pick_line(&mut rng);
                let written = line
                    .words()
                    .filter(|a| reference.contains_key(&a.as_u64()))
                    .count();
                by_written[match written {
                    0 => 0,
                    8 => 2,
                    _ => 1,
                }] += 1;
                assert_eq!(
                    shadow.line_image(line, &pm),
                    ref_line_image(&reference, line, &pm),
                    "line image of {line} with {written} words written at step {step}"
                );
            }
            // The device moves underneath: staged writes (which may force
            // drains), bypass writes, and full drains.
            75..=91 => {
                let addr = pick_addr(&mut rng);
                let bytes: Vec<u8> = (0..1 + rng.below(24))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                pm.write(addr, &bytes);
            }
            92..=95 => {
                let addr = pick_addr(&mut rng);
                let bytes: Vec<u8> = (0..1 + rng.below(24))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                pm.write_through(addr, &bytes);
            }
            96 => pm.flush_all(),
            _ => clones.push((shadow.clone(), reference.clone())),
        }
        if step % CLEAR_EVERY == CLEAR_EVERY / 2 {
            shadow.clear();
            reference.clear();
            assert!(shadow.is_empty());
        }
        assert_eq!(
            shadow.len(),
            reference.len(),
            "written word count at step {step}"
        );
    }

    assert!(
        by_written.iter().all(|&n| n >= 100),
        "line images by words written (none, some, all): {by_written:?}"
    );
    assert!(pm.stats().buffer_forced_drains > 0 && pm.stats().media_line_writes > 0);
    assert!(clones.len() >= 20, "{} clones", clones.len());
    assert_same_image(&shadow, &reference, &pm, "live shadow");
    for (i, (clone, clone_ref)) in clones.iter().enumerate() {
        assert_same_image(clone, clone_ref, &pm, &format!("clone {i}"));
    }
}

#[test]
fn recorder_reads_its_writes_across_page_boundaries() {
    let mut rec = TxRecorder::new();
    // The last and first words on either side of three page boundaries.
    for page in 1..4u64 {
        for off in [PAGE - 16, PAGE - 8, PAGE, PAGE + 8] {
            let a = PhysAddr::new((page - 1) * PAGE + off);
            rec.write_u64(a, a.as_u64() ^ 0xa5);
        }
    }
    for page in 1..4u64 {
        for off in [PAGE - 16, PAGE - 8, PAGE, PAGE + 8] {
            let a = PhysAddr::new((page - 1) * PAGE + off);
            assert_eq!(rec.read_u64(a), a.as_u64() ^ 0xa5, "{a}");
        }
        // Neighbours never written still read as zero.
        assert_eq!(rec.peek_u64(PhysAddr::new(page * PAGE - 24)), 0);
        assert_eq!(rec.peek_u64(PhysAddr::new(page * PAGE + 16)), 0);
    }

    // Random traffic over a span that crosses two page boundaries, with
    // unaligned addresses and clones taken mid-stream.
    let mut rng = Xoshiro256::seeded(0x7ec0);
    let base = 8 * PAGE - PAGE / 4;
    let mut rec = TxRecorder::new();
    let mut reference: HashMap<u64, u64> = HashMap::new();
    let mut clones: Vec<(TxRecorder, HashMap<u64, u64>)> = Vec::new();
    for step in 0..10_000 {
        let a = PhysAddr::new(base + rng.below(2 * PAGE));
        let key = a.word_aligned().as_u64();
        match rng.below(10) {
            0..=3 => {
                let v = rng.next_u64();
                rec.write_u64(a, v);
                reference.insert(key, v);
            }
            4..=6 => {
                let want = reference.get(&key).copied().unwrap_or(0);
                assert_eq!(rec.read_u64(a), want, "read {a} at step {step}");
            }
            7 | 8 => {
                let want = reference.get(&key).copied().unwrap_or(0);
                assert_eq!(rec.peek_u64(a), want, "peek {a} at step {step}");
            }
            _ => clones.push((rec.clone(), reference.clone())),
        }
        if step % 1000 == 999 {
            rec.finish_tx();
        }
    }
    assert!(clones.len() >= 100, "{} clones", clones.len());
    for (clone, clone_ref) in clones.iter().chain([(rec, reference)].iter()) {
        for w in 0..2 * PAGE / WORD_BYTES as u64 {
            let a = PhysAddr::new(base + w * WORD_BYTES as u64);
            let want = clone_ref.get(&a.as_u64()).copied().unwrap_or(0);
            assert_eq!(clone.peek_u64(a), want, "{a}");
        }
    }
}

/// Every word of `image` in iteration order, as `(address, value)`.
fn listed(image: &WordImage) -> Vec<(u64, u64)> {
    image
        .iter()
        .map(|(a, w)| (a.as_u64(), w.as_u64()))
        .collect()
}

fn ordered(reference: &BTreeMap<u64, u64>) -> Vec<(u64, u64)> {
    reference.iter().map(|(&a, &v)| (a, v)).collect()
}

#[test]
fn iteration_lists_each_written_word_once_in_ascending_address_order() {
    let mut rng = Xoshiro256::seeded(0x17e4);
    // Eight pages around a page boundary, a few far ones, every address
    // unaligned half the time; a fifth of the values written are zero.
    let base = 40 * PAGE - PAGE / 2;
    let pick = |rng: &mut Xoshiro256| {
        let a = if rng.percent(10) {
            rng.below(1 << 20) * PAGE + rng.below(PAGE)
        } else {
            base + rng.below(8 * PAGE)
        };
        PhysAddr::new(a)
    };
    let mut image = WordImage::new();
    let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
    let mut clones: Vec<(WordImage, Vec<(u64, u64)>)> = Vec::new();
    let (mut zeros, mut pages) = (0, 0);
    for step in 0..4_000 {
        match rng.below(100) {
            0..=97 => {
                let addr = pick(&mut rng);
                let value = if rng.percent(20) { 0 } else { rng.next_u64() };
                zeros += (value == 0) as u32;
                image.insert(addr, Word::new(value));
                reference.insert(addr.word_aligned().as_u64(), value);
            }
            98 => {
                // A clone keeps the listing it had when it was taken.
                clones.push((image.clone(), ordered(&reference)));
            }
            _ if step % 4 == 0 => {
                image.clear();
                reference.clear();
                assert!(listed(&image).is_empty(), "cleared at step {step}");
            }
            _ => {}
        }
        if step % 250 == 0 {
            assert_eq!(listed(&image), ordered(&reference), "step {step}");
            let mut touched: Vec<u64> = reference.keys().map(|a| a / PAGE).collect();
            touched.dedup();
            pages = pages.max(touched.len());
        }
    }
    assert!(zeros > 100, "{zeros} zeros written");
    assert!(pages >= 8, "the image spanned {pages} pages");
    let live = listed(&image);
    assert_eq!(live, ordered(&reference), "live image");
    assert_eq!(live.len(), image.len());
    assert!(
        live.windows(2).all(|w| w[0].0 < w[1].0),
        "addresses strictly ascend"
    );
    assert!(clones.len() >= 20, "{} clones", clones.len());
    for (i, (clone, at_clone)) in clones.iter().enumerate() {
        assert_eq!(&listed(clone), at_clone, "clone {i}");
    }
}
