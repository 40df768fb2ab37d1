//! mmap-backed **cold tiles**: read-only tile blobs served from a
//! file mapping instead of heap allocations (feature `mmap-cold`,
//! unix only).
//!
//! The hot [`Tiled`](super::Tiled) grid keeps every tile on the heap;
//! for graphs larger than RAM (or larger than an rlimit-capped heap)
//! the same 2D grid can instead be **built streaming** — one stripe of
//! tiles in memory at a time — into an on-disk blob file, then
//! traversed through a shared read-only mapping. File-backed
//! `MAP_SHARED` pages are not charged to the process's data segment
//! (`RLIMIT_DATA`), and the kernel pages tiles in and out on demand,
//! so a BFS touches only the frontier's stripes' working set.
//!
//! The file is a host-endian cache, not an interchange format:
//!
//! ```text
//! header   magic, nrows, ncols, grid_rows, grid_cols, value size, dir offset
//! blobs    per non-empty tile, 8-byte aligned:
//!            row_ptr  (tile_rows + 1) × u64
//!            vals     nnz × V          (omitted when V is zero-sized)
//!            cols     nnz × u32        (tile-local column indices)
//! dir      per tile: (blob offset | EMPTY, nnz) × u64
//! ```
//!
//! `row_ptr` lands 8-aligned because blobs are 8-aligned; `vals` and
//! `cols` stay self-aligned because every supported `V` is 0, 4, or 8
//! bytes wide. That makes every access a zero-copy slice straight into
//! the mapping.
//!
//! No external crate: the two syscalls this module needs are declared
//! directly against the platform C ABI.

use std::ffi::c_void;
use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::mem::{align_of, size_of};
use std::os::unix::io::AsRawFd;
use std::path::Path;

use crate::index::Index;

mod ffi {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 0x1;
    pub const MAP_SHARED: i32 = 0x01;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

const MAGIC: u64 = 0x4742_5443_4f4c_4431; // "GBTCOLD1"
const HEADER_LEN: u64 = 56;
/// Directory sentinel for a tile with no stored entries.
const EMPTY: u64 = u64::MAX;

/// Marker for fixed-width value types a cold tile can serve zero-copy
/// from raw file bytes.
///
/// # Safety
///
/// Implementors must be `Copy`, contain no padding, be valid for every
/// bit pattern, and have an alignment of at most 8 that divides their
/// size (so slices stay self-aligned inside a blob).
pub unsafe trait Pod: Copy + 'static {}

unsafe impl Pod for () {}
unsafe impl Pod for u32 {}
unsafe impl Pod for i32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for f32 {}
unsafe impl Pod for f64 {}

fn as_bytes<T: Pod>(s: &[T]) -> &[u8] {
    // Pod guarantees no padding and no invalid bytes.
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast::<u8>(), std::mem::size_of_val(s)) }
}

/// Streaming builder: feed rows in order, hold at most one stripe of
/// tiles in memory, and get a [`ColdTiled`]-openable file out.
pub struct ColdTiledWriter<V: Pod> {
    file: File,
    nrows: usize,
    ncols: usize,
    grid_rows: usize,
    grid_cols: usize,
    tile_nrows: usize,
    tile_ncols: usize,
    /// Current stripe's buffered tiles, one per tile column.
    stripe: Vec<TileBuf<V>>,
    stripe_rows: usize,
    next_row: usize,
    /// Per-tile `(blob offset | EMPTY, nnz)`, row-major.
    dir: Vec<(u64, u64)>,
    pos: u64,
}

struct TileBuf<V> {
    row_ptr: Vec<u64>,
    cols: Vec<u32>,
    vals: Vec<V>,
}

impl<V> TileBuf<V> {
    fn new() -> Self {
        TileBuf {
            row_ptr: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<V: Pod> ColdTiledWriter<V> {
    /// Start a cold build at `path` (truncating). The grid is clamped
    /// to the matrix dimensions exactly like the hot grid.
    pub fn create(
        path: &Path,
        nrows: usize,
        ncols: usize,
        grid: (usize, usize),
    ) -> io::Result<Self> {
        let (grid_rows, grid_cols) = super::clamp_grid(nrows, ncols, grid);
        let mut file = File::create(path)?;
        // header placeholder; patched by finish()
        file.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(ColdTiledWriter {
            file,
            nrows,
            ncols,
            grid_rows,
            grid_cols,
            tile_nrows: nrows.div_ceil(grid_rows),
            tile_ncols: ncols.div_ceil(grid_cols),
            stripe: (0..grid_cols).map(|_| TileBuf::new()).collect(),
            stripe_rows: 0,
            next_row: 0,
            dir: Vec::new(),
            pos: HEADER_LEN,
        })
    }

    /// Append the next row (global row `self.next_row`). `cols` must be
    /// sorted ascending; `vals` runs parallel to it.
    pub fn push_row(&mut self, cols: &[Index], vals: &[V]) -> io::Result<()> {
        assert!(self.next_row < self.nrows, "more rows than the matrix has");
        assert_eq!(cols.len(), vals.len());
        let mut p = 0;
        for (tj, buf) in self.stripe.iter_mut().enumerate() {
            let hi = ((tj + 1) * self.tile_ncols).min(self.ncols);
            let start = p;
            while p < cols.len() && cols[p] < hi {
                buf.cols.push((cols[p] - tj * self.tile_ncols) as u32);
                p += 1;
            }
            buf.vals.extend_from_slice(&vals[start..p]);
            buf.row_ptr.push(buf.cols.len() as u64);
        }
        assert_eq!(p, cols.len(), "column index out of range");
        self.next_row += 1;
        self.stripe_rows += 1;
        if self.stripe_rows == self.tile_nrows || self.next_row == self.nrows {
            self.flush_stripe()?;
        }
        Ok(())
    }

    fn flush_stripe(&mut self) -> io::Result<()> {
        for buf in &mut self.stripe {
            if buf.cols.is_empty() {
                self.dir.push((EMPTY, 0));
            } else {
                // 8-align the blob start
                let pad = self.pos.next_multiple_of(8) - self.pos;
                self.file.write_all(&[0u8; 8][..pad as usize])?;
                self.pos += pad;
                self.dir.push((self.pos, buf.cols.len() as u64));
                self.file.write_all(as_bytes(&buf.row_ptr))?;
                self.file.write_all(as_bytes(&buf.vals))?;
                self.file.write_all(as_bytes(&buf.cols))?;
                self.pos += (buf.row_ptr.len() * 8
                    + buf.vals.len() * size_of::<V>()
                    + buf.cols.len() * 4) as u64;
            }
            *buf = TileBuf::new();
        }
        self.stripe_rows = 0;
        Ok(())
    }

    /// Write the directory and header; the file is now openable.
    pub fn finish(mut self) -> io::Result<()> {
        assert_eq!(self.next_row, self.nrows, "not every row was pushed");
        // stripes that start past the last row (ceil-sized stripes can
        // cover the rows in fewer than grid_rows) hold nothing
        self.dir.resize(self.grid_rows * self.grid_cols, (EMPTY, 0));
        let pad = self.pos.next_multiple_of(8) - self.pos;
        self.file.write_all(&[0u8; 8][..pad as usize])?;
        let dir_offset = self.pos + pad;
        let flat: Vec<u64> = self.dir.iter().flat_map(|&(off, nnz)| [off, nnz]).collect();
        self.file.write_all(as_bytes(&flat))?;
        let header: [u64; 7] = [
            MAGIC,
            self.nrows as u64,
            self.ncols as u64,
            self.grid_rows as u64,
            self.grid_cols as u64,
            size_of::<V>() as u64,
            dir_offset,
        ];
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(as_bytes(&header))?;
        self.file.sync_all()
    }
}

/// An owned read-only mapping; unmapped on drop.
struct Mmap {
    ptr: *mut c_void,
    len: usize,
}

// The mapping is immutable for its whole lifetime.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    fn map(file: &File) -> io::Result<Self> {
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "empty file"));
        }
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    /// A typed slice at byte offset `off` (must be `T`-aligned; the
    /// writer's layout guarantees it for every slice we read back).
    fn slice<T: Pod>(&self, off: usize, len: usize) -> &[T] {
        let end = off + len * size_of::<T>();
        assert!(end <= self.len, "slice beyond the mapping");
        let ptr = unsafe { (self.ptr as *const u8).add(off) };
        assert_eq!(
            ptr as usize % align_of::<T>().max(1),
            0,
            "misaligned cold-tile slice"
        );
        unsafe { std::slice::from_raw_parts(ptr.cast::<T>(), len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        unsafe {
            ffi::munmap(self.ptr, self.len);
        }
    }
}

/// A read-only 2D tile grid served from a file mapping. Opened from a
/// file written by [`ColdTiledWriter`]; every row read is a zero-copy
/// slice into the mapping.
pub struct ColdTiled<V: Pod> {
    map: Mmap,
    nrows: usize,
    ncols: usize,
    grid_rows: usize,
    grid_cols: usize,
    tile_nrows: usize,
    tile_ncols: usize,
    /// Per-tile `(blob offset | EMPTY, nnz)`, row-major (small: 16
    /// bytes per tile, copied out of the mapping once).
    dir: Vec<(u64, u64)>,
    nvals: usize,
    _v: PhantomData<V>,
}

impl<V: Pod> ColdTiled<V> {
    /// Open a file written by [`ColdTiledWriter`]. The file is untrusted
    /// input: the header and every directory entry are checked against
    /// the mapping here, with overflow-checked arithmetic, so that no
    /// later [`ColdTiled::tile_row`] can slice outside it — a truncated,
    /// corrupt or hostile file is `InvalidData`, never a panic or an
    /// out-of-bounds read. Blob *contents* (row pointers, column
    /// indices) are not scanned; reads of them stay bounds-checked.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let map = Mmap::map(&file)?;
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg);
        if map.len < HEADER_LEN as usize {
            return Err(bad("truncated header"));
        }
        let h: &[u64] = map.slice(0, 7);
        if h[0] != MAGIC {
            return Err(bad("not a cold-tile file"));
        }
        if h[5] != size_of::<V>() as u64 {
            return Err(bad("value width does not match the requested type"));
        }
        let field = |k: usize| usize::try_from(h[k]).map_err(|_| bad("header field too large"));
        let (nrows, ncols) = (field(1)?, field(2)?);
        let (grid_rows, grid_cols) = (field(3)?, field(4)?);
        let dir_offset = field(6)?;
        // the writer clamps the grid to the shape: 1 ≤ grid ≤ dimension
        if grid_rows == 0 || grid_rows > nrows || grid_cols == 0 || grid_cols > ncols {
            return Err(bad("tile grid is empty or exceeds the matrix shape"));
        }
        let ntiles = grid_rows.checked_mul(grid_cols);
        let dir_end = ntiles
            .and_then(|n| n.checked_mul(16))
            .and_then(|bytes| bytes.checked_add(dir_offset));
        let (Some(ntiles), Some(dir_end)) = (ntiles, dir_end) else {
            return Err(bad("tile grid overflows the address space"));
        };
        if dir_offset < HEADER_LEN as usize || dir_offset % 8 != 0 || dir_end > map.len {
            return Err(bad("truncated or misplaced directory"));
        }
        let tile_nrows = nrows.div_ceil(grid_rows);
        let flat: &[u64] = map.slice(dir_offset, ntiles * 2);
        let dir: Vec<(u64, u64)> = flat.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        let mut nvals = 0usize;
        for (t, &(off, nnz)) in dir.iter().enumerate() {
            if off == EMPTY {
                continue;
            }
            // rows of this tile's stripe; 0 when the stripe starts past
            // the last row, where no blob can live
            let first_row = (t / grid_cols).saturating_mul(tile_nrows);
            let rows = nrows.saturating_sub(first_row).min(tile_nrows);
            // blob: row_ptr (rows + 1) × u64, then nnz × (V + u32 column)
            let blob_end = || {
                let entries = usize::try_from(nnz).ok()?.checked_mul(size_of::<V>() + 4)?;
                let row_ptr = rows.checked_add(1)?.checked_mul(8)?;
                usize::try_from(off)
                    .ok()?
                    .checked_add(row_ptr)?
                    .checked_add(entries)
            };
            let inside =
                off >= HEADER_LEN && off % 8 == 0 && blob_end().is_some_and(|e| e <= dir_offset);
            if rows == 0 || !inside {
                return Err(bad("tile blob outside the mapping"));
            }
            // nnz fits: it is bounded by the blob length just checked
            nvals = nvals
                .checked_add(nnz as usize)
                .ok_or_else(|| bad("stored-element count overflows"))?;
        }
        Ok(ColdTiled {
            map,
            nrows,
            ncols,
            grid_rows,
            grid_cols,
            tile_nrows,
            tile_ncols: ncols.div_ceil(grid_cols),
            dir,
            nvals,
            _v: PhantomData,
        })
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    pub fn nvals(&self) -> usize {
        self.nvals
    }

    pub fn grid(&self) -> (usize, usize) {
        (self.grid_rows, self.grid_cols)
    }

    /// One tile-local row: `(cols, vals)` slices into the mapping.
    /// `local` is relative to the tile's stripe.
    pub fn tile_row(&self, ti: usize, tj: usize, local: usize) -> (&[u32], &[V]) {
        let (off, nnz) = self.dir[ti * self.grid_cols + tj];
        if off == EMPTY {
            return (&[], &[]);
        }
        let rows = (self.nrows - ti * self.tile_nrows).min(self.tile_nrows);
        debug_assert!(local < rows);
        let row_ptr: &[u64] = self.map.slice(off as usize, rows + 1);
        let (lo, hi) = (row_ptr[local] as usize, row_ptr[local + 1] as usize);
        let vals_off = off as usize + (rows + 1) * 8;
        let cols_off = vals_off + nnz as usize * size_of::<V>();
        let vals: &[V] = self.map.slice(vals_off, nnz as usize);
        let cols: &[u32] = self.map.slice(cols_off, nnz as usize);
        (&cols[lo..hi], &vals[lo..hi])
    }

    /// Visit global row `i`'s segments left-to-right: `f(col_offset,
    /// tile_local_cols, vals)` — ascending global column order, like
    /// [`OrientedTiles::for_row`](super::OrientedTiles::for_row).
    pub fn for_row(&self, i: usize, f: &mut impl FnMut(usize, &[u32], &[V])) {
        let ti = i / self.tile_nrows;
        let local = i - ti * self.tile_nrows;
        for tj in 0..self.grid_cols {
            let (cols, vals) = self.tile_row(ti, tj, local);
            if !cols.is_empty() {
                f(tj * self.tile_ncols, cols, vals);
            }
        }
    }

    /// Level-synchronous BFS over the cold grid (rows as adjacency;
    /// `u32::MAX` marks unreached). Heap use is `O(nrows)` — levels and
    /// frontier only; the graph itself stays in the mapping.
    pub fn bfs_levels(&self, src: usize) -> Vec<u32> {
        let mut levels = vec![u32::MAX; self.nrows];
        let mut frontier = vec![src];
        levels[src] = 0;
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                self.for_row(u, &mut |off, cols, _vals| {
                    for &c in cols {
                        let v = off + c as usize;
                        if levels[v] == u32::MAX {
                            levels[v] = level;
                            next.push(v);
                        }
                    }
                });
            }
            frontier = next;
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::super::Tiled;
    use super::*;
    use crate::storage::csr::Csr;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gb-cold-{name}-{}", std::process::id()));
        p
    }

    fn write_csr(path: &Path, csr: &Csr<f64>, grid: (usize, usize)) {
        let mut w = ColdTiledWriter::<f64>::create(path, csr.nrows(), csr.ncols(), grid).unwrap();
        for i in 0..csr.nrows() {
            let (cols, vals) = csr.row(i);
            w.push_row(cols, vals).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn roundtrip_matches_hot_tiles() {
        let mut tuples: Vec<(usize, usize, f64)> = (0..400)
            .map(|k| ((k * 13) % 37, (k * 7) % 23, k as f64 * 0.5))
            .collect();
        tuples.sort_by_key(|&(i, j, _)| (i, j));
        tuples.dedup_by_key(|&mut (i, j, _)| (i, j));
        let csr = Csr::from_sorted_tuples(37, 23, tuples);
        for grid in [(1, 1), (3, 3), (5, 2), (12, 5), (37, 23)] {
            let path = tmp(&format!("rt-{}-{}", grid.0, grid.1));
            write_csr(&path, &csr, grid);
            let cold = ColdTiled::<f64>::open(&path).unwrap();
            assert_eq!(cold.nvals(), csr.nvals());
            assert_eq!(cold.grid(), super::super::clamp_grid(37, 23, grid));
            for i in 0..csr.nrows() {
                let (rc, rv) = csr.row(i);
                let mut cols = Vec::new();
                let mut vals = Vec::new();
                cold.for_row(i, &mut |off, cs, vs| {
                    cols.extend(cs.iter().map(|&c| off + c as usize));
                    vals.extend_from_slice(vs);
                });
                assert_eq!(cols, rc, "row {i} grid {grid:?}");
                assert_eq!(vals, rv, "row {i} grid {grid:?}");
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn pattern_only_bfs_matches_in_memory_reference() {
        // ring + chords: connected, known eccentricity structure
        let n = 200usize;
        let mut tuples: Vec<(usize, usize, ())> = Vec::new();
        for i in 0..n {
            tuples.push((i, (i + 1) % n, ()));
            tuples.push((i, (i + 7) % n, ()));
        }
        tuples.sort_by_key(|&(i, j, _)| (i, j));
        tuples.dedup_by_key(|&mut (i, j, _)| (i, j));
        let csr = Csr::from_sorted_tuples(n, n, tuples);
        let path = tmp("bfs");
        let mut w = ColdTiledWriter::<()>::create(&path, n, n, (4, 4)).unwrap();
        for i in 0..n {
            let (cols, vals) = csr.row(i);
            w.push_row(cols, vals).unwrap();
        }
        w.finish().unwrap();
        let cold = ColdTiled::<()>::open(&path).unwrap();

        // reference BFS straight off the Csr
        let mut want = vec![u32::MAX; n];
        let mut frontier = vec![0usize];
        want[0] = 0;
        let mut level = 0;
        while !frontier.is_empty() {
            level += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                let (cols, _) = csr.row(u);
                for &v in cols {
                    if want[v] == u32::MAX {
                        want[v] = level;
                        next.push(v);
                    }
                }
            }
            frontier = next;
        }
        assert_eq!(cold.bfs_levels(0), want);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hot_and_cold_grids_agree_tilewise() {
        let mut t: Vec<(usize, usize, f64)> = (0..300)
            .map(|k| ((k * 17) % 50, (k * 11) % 40, k as f64))
            .collect();
        t.sort_by_key(|&(i, j, _)| (i, j));
        t.dedup_by_key(|&mut (i, j, _)| (i, j));
        let csr = Csr::from_sorted_tuples(50, 40, t);
        let hot = Tiled::from_csr(&csr, (4, 4));
        let path = tmp("hotcold");
        write_csr(&path, &csr, (4, 4));
        let cold = ColdTiled::<f64>::open(&path).unwrap();
        assert_eq!(cold.grid(), hot.grid());
        assert_eq!(cold.nvals(), hot.nvals());
        let _ = std::fs::remove_file(&path);
    }

    /// A valid 37×23 f64 blob on a 3×3 grid, as bytes.
    fn valid_blob(name: &str) -> (std::path::PathBuf, Vec<u8>) {
        let tuples: Vec<(usize, usize, f64)> =
            (0..37).map(|i| (i, (i * 5) % 23, i as f64)).collect();
        let path = tmp(name);
        write_csr(&path, &Csr::from_sorted_tuples(37, 23, tuples), (3, 3));
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes)
    }

    fn word(bytes: &[u8], k: usize) -> u64 {
        u64::from_ne_bytes(bytes[k * 8..k * 8 + 8].try_into().unwrap())
    }

    fn set_word(bytes: &mut [u8], k: usize, v: u64) {
        bytes[k * 8..k * 8 + 8].copy_from_slice(&v.to_ne_bytes());
    }

    /// Opening `bytes` must report `InvalidData` — not panic, not succeed.
    fn assert_rejected(path: &Path, bytes: &[u8], what: &str) {
        std::fs::write(path, bytes).unwrap();
        let kind = ColdTiled::<f64>::open(path).err().map(|e| e.kind());
        assert_eq!(kind, Some(io::ErrorKind::InvalidData), "{what}");
    }

    #[test]
    fn cold_open_rejects_truncated_file() {
        let (path, bytes) = valid_blob("trunc");
        assert!(ColdTiled::<f64>::open(&path).is_ok());
        let dir_offset = word(&bytes, 6) as usize;
        for len in [1, 55, 56, 60, dir_offset / 2, dir_offset, bytes.len() - 1] {
            assert_rejected(&path, &bytes[..len], &format!("cut to {len} bytes"));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cold_open_rejects_zero_grid() {
        let (path, bytes) = valid_blob("zerogrid");
        for k in [3, 4] {
            let mut b = bytes.clone();
            set_word(&mut b, k, 0);
            assert_rejected(&path, &b, "zero grid axis");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cold_open_rejects_overflowing_grid() {
        let (path, bytes) = valid_blob("overflow");
        // more tiles than rows
        let mut b = bytes.clone();
        set_word(&mut b, 3, u64::MAX / 2 + 1);
        set_word(&mut b, 4, 4);
        assert_rejected(&path, &b, "grid larger than the shape");
        // a shape that admits the grid: the tile count itself overflows
        for k in 1..=4 {
            set_word(&mut b, k, u64::MAX / 2 + 1);
        }
        assert_rejected(&path, &b, "grid_rows * grid_cols overflows");
        // tile count fits, its byte length plus the offset does not
        let mut b = bytes.clone();
        set_word(&mut b, 6, u64::MAX - 7);
        assert_rejected(&path, &b, "dir_offset + ntiles * 16 overflows");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cold_open_rejects_tile_past_eof() {
        let (path, bytes) = valid_blob("eof");
        let dir = word(&bytes, 6) as usize / 8;
        let tile = (0..9)
            .find(|t| word(&bytes, dir + 2 * t) != EMPTY)
            .expect("some tile is stored");
        let len = bytes.len() as u64;
        // offset past EOF, offset whose blob runs past EOF, misaligned
        // offset, and an nnz whose byte length overflows
        for off in [len.next_multiple_of(8), len - 8, 57, u64::MAX - 7] {
            let mut b = bytes.clone();
            set_word(&mut b, dir + 2 * tile, off);
            assert_rejected(&path, &b, &format!("tile offset {off}"));
        }
        for nnz in [len, u64::MAX / 2] {
            let mut b = bytes.clone();
            set_word(&mut b, dir + 2 * tile + 1, nnz);
            assert_rejected(&path, &b, &format!("tile nnz {nnz}"));
        }
        let _ = std::fs::remove_file(&path);
    }
}
