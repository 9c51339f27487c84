//! A minimal read-only memory map, one of the two `unsafe` boundaries of
//! the out-of-core KB path (DESIGN.md §8); the other is the typed slice
//! cast in `image.rs`.
//!
//! We stay dependency-free, so instead of the `memmap2` crate this module
//! declares the two libc symbols it needs (`mmap`/`munmap` — std already
//! links libc on every unix target) and wraps them in an RAII handle that
//! derefs to `&[u8]`. On non-unix targets — and for empty files, where
//! `mmap` with length 0 is unspecified — it falls back to reading the whole
//! file into a `Vec<u8>`; callers only ever see a byte slice. The image
//! layer reads that slice in place, so it refuses a copy that the
//! allocator did not place 4-aligned.
//!
//! Safety argument for the `Send + Sync` impls and the `Deref`: the mapping
//! is `PROT_READ | MAP_PRIVATE`, so the kernel never lets us write through
//! it and other processes' writes to the file are not required to be
//! visible (private copy-on-write semantics). The image format layered on
//! top verifies a whole-file checksum at open and then reads the mapping
//! in place as typed slices, trusting what it validated; images are
//! replaced by rename (`write_image`), never rewritten in place, so no
//! writer in this project changes a mapped image's bytes. We never unmap
//! until `Drop`, and the slice we hand out lives exactly as long as the
//! mapping.

use std::fs::File;
use std::io::Read;
use std::ops::Deref;
use std::path::Path;

/// A read-only view of a file's bytes: an `mmap` on unix, a heap copy
/// elsewhere (and for empty files).
pub struct MmapFile {
    inner: Inner,
}

enum Inner {
    #[cfg(unix)]
    Mapped {
        ptr: *mut std::ffi::c_void,
        len: usize,
    },
    Owned(Vec<u8>),
}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

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

    /// `MAP_FAILED` is `(void *) -1` on every unix libc.
    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

impl MmapFile {
    /// Maps `path` read-only. Falls back to an owned buffer for empty
    /// files and on targets without `mmap`.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        let len_usize = usize::try_from(len)
            .map_err(|_| std::io::Error::other("file larger than address space"))?;

        #[cfg(unix)]
        if len_usize > 0 {
            use std::os::unix::io::AsRawFd;
            // SAFETY: fd is a valid open file descriptor for the duration
            // of the call; we request a fresh address (addr = null), a
            // read-only private mapping, and a length we just measured.
            // The kernel either returns a mapping of exactly `len_usize`
            // bytes or MAP_FAILED.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len_usize,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == sys::map_failed() || ptr.is_null() {
                return Err(std::io::Error::last_os_error());
            }
            return Ok(Self {
                inner: Inner::Mapped {
                    ptr,
                    len: len_usize,
                },
            });
        }

        let mut buf = Vec::with_capacity(len_usize);
        file.read_to_end(&mut buf)?;
        Ok(Self {
            inner: Inner::Owned(buf),
        })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { ptr, len } => {
                // SAFETY: `ptr` came from a successful PROT_READ mmap of
                // exactly `len` bytes and stays mapped until Drop; the
                // mapping is private, so the slice contents are stable for
                // its lifetime.
                unsafe { std::slice::from_raw_parts(*ptr as *const u8, *len) }
            }
            Inner::Owned(buf) => buf,
        }
    }
}

impl Deref for MmapFile {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl Drop for MmapFile {
    fn drop(&mut self) {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped { ptr, len } => {
                // SAFETY: exactly one munmap of the region mmap gave us;
                // no slice borrowed from it can outlive `self`.
                unsafe {
                    sys::munmap(*ptr, *len);
                }
            }
            Inner::Owned(_) => {}
        }
    }
}

// SAFETY: the mapping is read-only and private; sharing `&[u8]` views
// across threads involves no mutation or interior mutability.
unsafe impl Send for MmapFile {}
// SAFETY: as above — concurrent reads of an immutable mapping are safe.
unsafe impl Sync for MmapFile {}

impl std::fmt::Debug for MmapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MmapFile")
            .field("len", &self.bytes().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn scratch(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("dr-mmapfile-{}-{}", std::process::id(), name));
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        path
    }

    #[test]
    fn maps_file_contents() {
        let path = scratch("basic", b"hello mapped world");
        let map = MmapFile::open(&path).unwrap();
        assert_eq!(&*map, b"hello mapped world");
        drop(map);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = scratch("empty", b"");
        let map = MmapFile::open(&path).unwrap();
        assert!(map.is_empty());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = MmapFile::open(Path::new("/nonexistent/dr-mmap-missing")).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }
}
