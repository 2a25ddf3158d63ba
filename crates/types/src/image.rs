//! A sparse, paged, copy-on-write image of written 8-byte words.
//!
//! The simulator keeps its word-granular memory images in [`WordImage`]:
//! the machine's architectural shadow (every simulated store and every
//! cacheline eviction), the workload recorder's logical memory (every
//! generated load and store), and the crash verdicts' expected words (the
//! oracle's and the spec machine's committed and rollback values, which
//! every crash checkpoint copies). They share the layout of the paged PM
//! media: a page table of 4 KiB pages of words, each page with a bitmap of
//! the words ever written, the pages held in [`Arc`]. A store or a load is
//! one page-table lookup; a cacheline's eight words and their written mask
//! come from one lookup too, because a line never straddles a page.
//! Cloning an image copies the page table and bumps refcounts; a page is
//! duplicated only when a write lands on it while a clone still shares it.
//! [`WordImage::iter`] reads the written words in ascending address order,
//! sorting only the page indices; [`WordImage::pages`] hands out the same
//! pages whole, as [`PageView`]s, for readers that check a page's words
//! against a page of PM at once.

use std::sync::Arc;

use crate::{FxHashMap, LineAddr, PhysAddr, Word, LINE_BYTES, WORD_BYTES};

/// Bytes per image page, and per page of the PM media: a page of an image
/// covers the words one page read of the device returns.
pub const PAGE_BYTES: usize = 4096;

/// Words per image page.
pub const PAGE_WORDS: usize = PAGE_BYTES / WORD_BYTES;

/// One bit per word of a page: bit `w % 64` of element `w / 64` stands for
/// word `w`.
pub type PageMask = [u64; PAGE_WORDS / 64];

/// Words per cacheline.
const LINE_WORDS: usize = LINE_BYTES / WORD_BYTES;

/// One page: its words, and one written bit per word.
#[derive(Clone, Debug)]
struct Page {
    words: [u64; PAGE_WORDS],
    written: PageMask,
}

impl Page {
    fn empty() -> Self {
        Page {
            words: [0; PAGE_WORDS],
            written: [0; PAGE_WORDS / 64],
        }
    }

    #[inline]
    fn is_written(&self, w: usize) -> bool {
        self.written[w / 64] >> (w % 64) & 1 != 0
    }
}

/// The words whose bits are set in `mask`, ascending.
///
/// # Examples
///
/// ```
/// use silo_types::{mask_words, PageMask};
///
/// let mut mask: PageMask = [0; 8];
/// mask[0] = 0b1010;
/// mask[7] = 1 << 63;
/// assert_eq!(mask_words(&mask).collect::<Vec<_>>(), [1, 3, 511]);
/// ```
pub fn mask_words(mask: &PageMask) -> impl Iterator<Item = usize> + '_ {
    mask.iter()
        .enumerate()
        .flat_map(|(chunk, &bits)| SetBits(bits).map(move |b| chunk * 64 + b))
}

/// One page of a [`WordImage`], borrowed: its index, its words and which of
/// them are written. An unwritten word reads as zero here.
#[derive(Clone, Copy, Debug)]
pub struct PageView<'a> {
    /// The page's index: its first word is at `index * PAGE_BYTES`.
    pub index: u64,
    /// The page's words, the `w`-th at `index * PAGE_BYTES + w * 8`.
    pub words: &'a [u64; PAGE_WORDS],
    /// Which words are written.
    pub written: &'a PageMask,
}

impl<'a> PageView<'a> {
    fn of(index: u64, page: &'a Page) -> Self {
        PageView {
            index,
            words: &page.words,
            written: &page.written,
        }
    }
}

/// The set bits of a word, lowest first.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let b = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(b)
    }
}

/// The page index and the word index within that page of `addr`'s word.
#[inline]
fn split(addr: PhysAddr) -> (u64, usize) {
    let a = addr.as_u64();
    (
        a / PAGE_BYTES as u64,
        (a % PAGE_BYTES as u64) as usize / WORD_BYTES,
    )
}

/// A sparse image of the words written so far, keyed by word-aligned
/// address; an unwritten word has no value of its own (the owner decides
/// what it falls through to).
///
/// # Examples
///
/// ```
/// use silo_types::{LineAddr, PhysAddr, Word, WordImage};
///
/// let mut img = WordImage::new();
/// assert_eq!(img.insert(PhysAddr::new(8), Word::new(5)), None);
/// assert_eq!(img.insert(PhysAddr::new(13), Word::new(6)), Some(Word::new(5)));
/// assert_eq!(img.get(PhysAddr::new(8)), Some(Word::new(6)));
/// assert_eq!(img.get(PhysAddr::new(16)), None);
/// let snap = img.clone(); // shares every page
/// img.insert(PhysAddr::new(8), Word::new(7));
/// assert_eq!(snap.get(PhysAddr::new(8)), Some(Word::new(6)));
/// let (words, written) = img.line(LineAddr::containing(PhysAddr::new(0)));
/// assert_eq!((words[1], written), (Word::new(7), 0b10));
/// img.insert(PhysAddr::new(0), Word::ZERO);
/// let words: Vec<(u64, Word)> = img.iter().map(|(a, w)| (a.as_u64(), w)).collect();
/// assert_eq!(words, [(0, Word::ZERO), (8, Word::new(7))]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct WordImage {
    pages: FxHashMap<u64, Arc<Page>>,
    written: usize,
}

impl WordImage {
    /// Creates an empty image.
    pub fn new() -> Self {
        WordImage::default()
    }

    /// The written value of the word containing `addr`, if any.
    #[inline]
    pub fn get(&self, addr: PhysAddr) -> Option<Word> {
        let (page, w) = split(addr);
        let p = self.pages.get(&page)?;
        p.is_written(w).then(|| Word::new(p.words[w]))
    }

    /// Writes the word containing `addr`, returning the value it replaced
    /// if the word was written before.
    #[inline]
    pub fn insert(&mut self, addr: PhysAddr, value: Word) -> Option<Word> {
        let (page, w) = split(addr);
        let p = Arc::make_mut(
            self.pages
                .entry(page)
                .or_insert_with(|| Arc::new(Page::empty())),
        );
        let old = std::mem::replace(&mut p.words[w], value.as_u64());
        let bit = 1u64 << (w % 64);
        if p.written[w / 64] & bit != 0 {
            return Some(Word::new(old));
        }
        p.written[w / 64] |= bit;
        self.written += 1;
        None
    }

    /// The eight words of `line` and which of them are written: bit `i` of
    /// the mask is set when word `i` is, and an unwritten word reads as
    /// zero here.
    #[inline]
    pub fn line(&self, line: LineAddr) -> ([Word; LINE_WORDS], u8) {
        let (page, w) = split(line.base());
        let mut words = [Word::ZERO; LINE_WORDS];
        let Some(p) = self.pages.get(&page) else {
            return (words, 0);
        };
        let written = (p.written[w / 64] >> (w % 64)) as u8;
        for (i, out) in words.iter_mut().enumerate() {
            *out = Word::new(p.words[w + i]);
        }
        (words, written)
    }

    /// Every written word with its word-aligned address, in ascending
    /// address order. Sorts the page indices, not the words: a page's
    /// words come out of its written bitmap already in order.
    pub fn iter(&self) -> impl Iterator<Item = (PhysAddr, Word)> + '_ {
        self.pages().flat_map(|p| {
            let base = p.index * PAGE_BYTES as u64;
            mask_words(p.written).map(move |w| {
                (
                    PhysAddr::new(base + (w * WORD_BYTES) as u64),
                    Word::new(p.words[w]),
                )
            })
        })
    }

    /// Every page holding a written word, in ascending index order.
    pub fn pages(&self) -> impl Iterator<Item = PageView<'_>> {
        let mut pages: Vec<PageView<'_>> = self
            .pages
            .iter()
            .map(|(&i, p)| PageView::of(i, p))
            .collect();
        pages.sort_unstable_by_key(|p| p.index);
        pages.into_iter()
    }

    /// The indices of the pages holding a written word, in no order.
    pub fn page_indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.keys().copied()
    }

    /// Page `index`, if it holds a written word.
    #[inline]
    pub fn page(&self, index: u64) -> Option<PageView<'_>> {
        self.pages.get(&index).map(|p| PageView::of(index, p))
    }

    /// Forgets every written word.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.written = 0;
    }

    /// Number of distinct words written.
    pub fn len(&self) -> usize {
        self.written
    }

    /// Whether no word has been written.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    /// How many pages are currently shared with at least one clone.
    #[cfg(test)]
    fn shared_pages(&self) -> usize {
        self.pages
            .values()
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_words_have_no_value() {
        let img = WordImage::new();
        assert_eq!(img.get(PhysAddr::new(0)), None);
        assert!(img.is_empty());
        assert_eq!(
            img.line(LineAddr::containing(PhysAddr::new(4096))),
            ([Word::ZERO; LINE_WORDS], 0)
        );
    }

    #[test]
    fn a_written_zero_is_still_written() {
        let mut img = WordImage::new();
        img.insert(PhysAddr::new(64), Word::ZERO);
        assert_eq!(img.get(PhysAddr::new(64)), Some(Word::ZERO));
        assert_eq!(img.line(LineAddr::containing(PhysAddr::new(64))).1, 1);
        assert_eq!(img.len(), 1);
    }

    #[test]
    fn len_counts_distinct_words() {
        let mut img = WordImage::new();
        img.insert(PhysAddr::new(0), Word::new(1));
        img.insert(PhysAddr::new(7), Word::new(2)); // same word
        img.insert(PhysAddr::new(PAGE_BYTES as u64), Word::new(3));
        assert_eq!(img.len(), 2);
        img.clear();
        assert!(img.is_empty());
        assert_eq!(img.get(PhysAddr::new(0)), None);
    }

    #[test]
    fn line_masks_cover_every_line_of_a_page() {
        let mut img = WordImage::new();
        // Write word (line % 8) of every line of two pages.
        for line in 0..2 * (PAGE_BYTES / LINE_BYTES) as u64 {
            let word = line % LINE_WORDS as u64;
            let addr = PhysAddr::new(line * LINE_BYTES as u64 + word * WORD_BYTES as u64);
            img.insert(addr, Word::new(line + 1));
        }
        for line in 0..2 * (PAGE_BYTES / LINE_BYTES) as u64 {
            let word = (line % LINE_WORDS as u64) as usize;
            let (words, written) = img.line(LineAddr::containing(PhysAddr::new(
                line * LINE_BYTES as u64,
            )));
            assert_eq!(written, 1 << word, "line {line}");
            assert_eq!(words[word], Word::new(line + 1));
        }
    }

    #[test]
    fn clones_are_copy_on_write() {
        let mut img = WordImage::new();
        for page in 0..3u64 {
            img.insert(PhysAddr::new(page * PAGE_BYTES as u64), Word::new(page));
        }
        let snap = img.clone();
        assert_eq!(img.shared_pages(), 3, "a clone shares every page");
        img.insert(PhysAddr::new(8), Word::new(9));
        assert_eq!(img.shared_pages(), 2, "only the written page was copied");
        assert_eq!(snap.get(PhysAddr::new(8)), None);
        assert_eq!(snap.len(), 3);
        assert_eq!(img.len(), 4);
    }
}
