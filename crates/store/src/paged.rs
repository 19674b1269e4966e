//! The paged-read core under every file tier.
//!
//! Both on-disk formats — feature rows (`SSFEAT01`, [`mod@crate::file`])
//! and CSR entries (`SSGRPH01`, [`mod@crate::graph_file`]) — are read
//! the same way, the host block path of the paper's Fig 10(a):
//!
//! 1. **Plan** — the distinct pages a batch of byte ranges touches,
//!    merged into maximal ascending runs ([`merge_page_runs`]). Pure
//!    address arithmetic.
//! 2. **Classify** — resident pages are cache hits; each maximal
//!    stretch of missing pages becomes one positioned read.
//! 3. **Fetch** — the whole miss plan goes to the [`ReadEngine`] as one
//!    batch. Stretches resolve concurrently across I/O workers, but the
//!    completion hands results back in submission order, so staging and
//!    the ascending cache commit are bit-identical to a serial read.
//! 4. **Commit** — fetched pages enter the cache in ascending order.
//!
//! [`PagedFile`] is that mechanism, written once.
//! [`SharedFileStore`](crate::SharedFileStore) decodes f32 rows and
//! [`SharedCsrFile`](crate::SharedCsrFile) decodes u64 entries from the
//! [`PageSet`] it returns.
//!
//! Every fetched page is accounted as read from media and shipped to
//! the host whole. The ISP tiers re-scope the host side of that split
//! after the fact.

use crate::error::StoreError;
use crate::file::FileStoreOptions;
use crate::stats::AtomicStoreStats;
use crate::StoreStats;
use smartsage_hostio::{
    merge_page_runs, ByteRange, PageRun, ReadEngine, ReadRequest, ReadSource, ShardedPageCache,
};
use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One open file read in whole pages through a lock-striped page
/// cache, shared by any number of threads.
#[derive(Debug)]
pub(crate) struct PagedFile {
    source: ReadSource,
    path: PathBuf,
    file_len: u64,
    opts: FileStoreOptions,
    cache: ShardedPageCache,
    engine: Arc<ReadEngine>,
}

/// The pages one [`PagedFile::read`] resolved, held as `Arc` clones so
/// an eviction in an undersized cache cannot disturb decoding.
#[derive(Debug)]
pub(crate) struct PageSet {
    page_bytes: u64,
    pages: HashMap<u64, Arc<[u8]>>,
}

impl PagedFile {
    /// Wraps an already validated `file` of `file_len` bytes, striping
    /// its page cache over `shards` locks. A zero page size fails typed,
    /// naming the file.
    pub fn new(
        file: File,
        path: PathBuf,
        file_len: u64,
        opts: FileStoreOptions,
        shards: usize,
        engine: Arc<ReadEngine>,
    ) -> Result<PagedFile, StoreError> {
        if opts.page_bytes == 0 {
            return Err(StoreError::BadPageSize {
                path,
                page_bytes: opts.page_bytes,
            });
        }
        Ok(PagedFile {
            source: ReadSource::new(file, path.clone()),
            path,
            file_len,
            opts,
            cache: ShardedPageCache::new(opts.cache_pages, shards),
            engine,
        })
    }

    /// The file this reads from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Exact length of the file in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Page size and cache capacity.
    pub fn options(&self) -> FileStoreOptions {
        self.opts
    }

    /// The page cache.
    pub fn cache(&self) -> &ShardedPageCache {
        &self.cache
    }

    /// The distinct pages `ranges` touch, merged into maximal ascending
    /// runs. Pure address arithmetic.
    pub fn plan(&self, ranges: &[ByteRange]) -> Vec<PageRun> {
        let pb = self.opts.page_bytes;
        let mut pages = Vec::with_capacity(ranges.len() * 2);
        for range in ranges {
            if let Some((first, last)) = range.blocks(pb) {
                pages.extend(first..=last);
            }
        }
        merge_page_runs(&pages)
    }

    /// Resolves every page `ranges` touch. Hits are promoted and
    /// staged; misses are fetched in one engine batch and committed to
    /// the cache in ascending order. On success this call's exact
    /// counts are added to `io`. If any stretch fails, no page is
    /// committed and `io` is left untouched.
    pub fn read(&self, ranges: &[ByteRange], io: &mut StoreStats) -> Result<PageSet, StoreError> {
        let mut staged = HashMap::new();
        let miss_runs = self.classify(&self.plan(ranges), |p| match self.cache.get(p) {
            Some(buf) => {
                staged.insert(p, buf);
                true
            }
            None => false,
        });
        let mut call = StoreStats {
            page_hits: staged.len() as u64,
            ..StoreStats::default()
        };
        let mut fetched: Vec<(u64, Arc<[u8]>)> = Vec::new();
        for (&(first, count), result) in miss_runs.iter().zip(self.fetch(&miss_runs)) {
            let buf = result.map_err(|source| StoreError::Io {
                path: self.path.clone(),
                action: "read run",
                source,
            })?;
            count_fetch(&mut call, count, buf.len() as u64);
            for (i, page) in buf.chunks(self.opts.page_bytes as usize).enumerate() {
                fetched.push((first + i as u64, Arc::from(page)));
            }
        }
        for (page, buf) in fetched {
            self.cache.insert(page, Arc::clone(&buf));
            staged.insert(page, buf);
        }
        io.accumulate(&call);
        Ok(PageSet {
            page_bytes: self.opts.page_bytes,
            pages: staged,
        })
    }

    /// Advisory read-ahead: loads the pages `ranges` touch that are not
    /// resident, without promoting those that are (a warm must not
    /// distort recency). A failed stretch is skipped while the rest
    /// still land, and only what landed is counted into `acc`, so it
    /// always explains every page a warm made resident.
    pub fn warm(&self, ranges: &[ByteRange], acc: &AtomicStoreStats) {
        let miss_runs = self.classify(&self.plan(ranges), |p| self.cache.contains(p));
        let mut io = StoreStats::default();
        for (&(first, count), result) in miss_runs.iter().zip(self.fetch(&miss_runs)) {
            let Ok(buf) = result else { continue };
            count_fetch(&mut io, count, buf.len() as u64);
            for (i, page) in buf.chunks(self.opts.page_bytes as usize).enumerate() {
                self.cache.insert(first + i as u64, Arc::from(page));
            }
        }
        acc.add(&io);
    }

    /// Splits `runs` into resident pages (`resident` answers, and may
    /// stage, each probe) and maximal stretches of missing pages,
    /// returned as `(first, count)`.
    fn classify(&self, runs: &[PageRun], mut resident: impl FnMut(u64) -> bool) -> Vec<(u64, u64)> {
        let mut miss_runs = Vec::new();
        for run in runs {
            let mut p = run.first;
            while p < run.end() {
                if resident(p) {
                    p += 1;
                    continue;
                }
                let mut q = p + 1;
                while q < run.end() && !self.cache.contains(q) {
                    q += 1;
                }
                miss_runs.push((p, q - p));
                p = q;
            }
        }
        miss_runs
    }

    /// Submits one positioned read per stretch as a single engine batch
    /// and returns the buffers in submission order (the file's final
    /// page may be short).
    fn fetch(&self, runs: &[(u64, u64)]) -> Vec<std::io::Result<Vec<u8>>> {
        if runs.is_empty() {
            return Vec::new();
        }
        let pb = self.opts.page_bytes;
        let requests = runs
            .iter()
            .map(|&(first, count)| {
                let start = first * pb;
                ReadRequest {
                    source: self.source.clone(),
                    offset: start,
                    len: (count * pb).min(self.file_len - start) as usize,
                }
            })
            .collect();
        self.engine.submit(requests).wait()
    }
}

/// Counts one fetched stretch of `pages` pages and `bytes` bytes: read
/// from media and shipped to the host whole.
fn count_fetch(io: &mut StoreStats, pages: u64, bytes: u64) {
    io.pages_read += pages;
    io.page_misses += pages;
    io.bytes_read += bytes;
    io.device_bytes_read += bytes;
    io.host_bytes_transferred += bytes;
}

impl PageSet {
    /// Copies the bytes of `range` into `dst` (`range.len` bytes),
    /// stitching across page boundaries.
    pub fn copy_range(&self, range: ByteRange, dst: &mut [u8]) {
        let pb = self.page_bytes;
        let Some((first, last)) = range.blocks(pb) else {
            return;
        };
        for page in first..=last {
            let page_start = page * pb;
            // ssl::allow(SSL001): decoders copy only ranges they passed
            // to read(), which staged every page of that plan.
            let src = self.pages.get(&page).expect("planned page is staged");
            let lo = range.offset.max(page_start);
            let hi = (range.offset + range.len).min(page_start + src.len() as u64);
            dst[(lo - range.offset) as usize..(hi - range.offset) as usize]
                .copy_from_slice(&src[(lo - page_start) as usize..(hi - page_start) as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `pages`-page file whose byte `i` is `i as u8`, opened with
    /// `cache_pages` pages of cache in one exact-LRU shard.
    fn paged(
        tag: &str,
        pages: u64,
        page_bytes: u64,
        cache_pages: usize,
    ) -> (crate::ScratchFile, PagedFile) {
        let file = crate::ScratchFile::new(tag);
        let len = pages * page_bytes;
        std::fs::write(file.path(), (0..len).map(|i| i as u8).collect::<Vec<u8>>()).unwrap();
        let paged = PagedFile::new(
            File::open(file.path()).unwrap(),
            file.path().to_path_buf(),
            len,
            FileStoreOptions {
                page_bytes,
                cache_pages,
            },
            1,
            Arc::new(ReadEngine::new(1)),
        )
        .unwrap();
        (file, paged)
    }

    fn page(p: u64) -> ByteRange {
        ByteRange {
            offset: p * 64,
            len: 64,
        }
    }

    fn resident(paged: &PagedFile, pages: u64) -> Vec<u64> {
        (0..pages).filter(|&p| paged.cache().contains(p)).collect()
    }

    #[test]
    fn warm_never_promotes_a_resident_page() {
        let (_file, paged) = paged("paged-warm-lru", 3, 64, 2);
        let mut io = StoreStats::default();
        paged.read(&[page(0)], &mut io).unwrap();
        paged.read(&[page(1)], &mut io).unwrap();
        // Page 0 is the LRU page. Warming it must leave it LRU...
        let acc = AtomicStoreStats::default();
        paged.warm(&[page(0)], &acc);
        assert_eq!(acc.snapshot(), StoreStats::default(), "resident: no I/O");
        // ...so the next miss evicts it, not page 1.
        paged.read(&[page(2)], &mut io).unwrap();
        assert_eq!(resident(&paged, 3), [1, 2]);
    }

    #[test]
    fn read_and_warm_over_one_plan_leave_identical_resident_sets() {
        let ranges = [
            ByteRange {
                offset: 30,
                len: 100,
            },
            page(5),
            ByteRange {
                offset: 7 * 64 - 4,
                len: 8,
            },
        ];
        let (_a, by_read) = paged("paged-read-set", 10, 64, 4);
        let (_b, by_warm) = paged("paged-warm-set", 10, 64, 4);
        // One page resident beforehand, so both paths split the plan.
        let mut io = StoreStats::default();
        by_read.read(&[page(1)], &mut io).unwrap();
        by_warm.read(&[page(1)], &mut io).unwrap();
        let mut read_io = StoreStats::default();
        let set = by_read.read(&ranges, &mut read_io).unwrap();
        let acc = AtomicStoreStats::default();
        by_warm.warm(&ranges, &acc);
        assert_eq!(resident(&by_read, 10), resident(&by_warm, 10));
        let warm_io = acc.snapshot();
        assert_eq!(read_io.pages_read, warm_io.pages_read);
        assert_eq!(read_io.bytes_read, warm_io.bytes_read);
        // The staged bytes are the file's bytes, across page boundaries.
        let mut got = vec![0u8; 100];
        set.copy_range(ranges[0], &mut got);
        assert_eq!(got, (30..130).map(|i| i as u8).collect::<Vec<u8>>());
    }
}
