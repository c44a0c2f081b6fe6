//! Store directories and reading a store's verdict index from disk,
//! shared by the store integration tests.

use procheck_store::{unframe, Fingerprint, IndexRecord, Kind};
use std::path::{Path, PathBuf};

/// A store directory under the system temp dir, unique to this process
/// and name, empty when created and removed when dropped — also while a
/// failing test unwinds, so a failed assertion leaves no store behind.
pub struct TempDir(PathBuf);

impl TempDir {
    /// `<temp dir>/<name>-<pid>`, cleared of anything an earlier process
    /// with the same pid left there.
    pub fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The one verdict index a store-backed run over `dir` wrote: its key
/// and its decoded record. Fails the test unless `indexes/` holds
/// exactly one file and that file validates.
pub fn stored_index(dir: &Path) -> (Fingerprint, IndexRecord) {
    let files: Vec<PathBuf> = std::fs::read_dir(dir.join(Kind::Index.dir()))
        .expect("the run creates the index directory")
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 1, "one index per FSM pair and leg: {files:?}");
    let key = files[0]
        .file_stem()
        .and_then(|stem| Fingerprint::from_hex(&stem.to_string_lossy()))
        .expect("index files are named by their key");
    let framed = std::fs::read(&files[0]).expect("index file readable");
    let payload = unframe(&framed, Kind::Index, key).expect("the index frame validates");
    (
        key,
        IndexRecord::decode(&payload).expect("the index payload decodes"),
    )
}
