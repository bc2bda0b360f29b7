//! A scratch directory that removes itself: where the WAL's tests and the
//! `online_loop` example keep their logs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh directory under the system temp dir, removed with everything in
/// it when the guard drops — at the end of a scope or while a panic
/// unwinds through it.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<temp>/itag-<label>-<pid>-<n>`, `n` counting the guards
    /// this process has made, so concurrent tests never share one. A stale
    /// directory left at that path by an earlier process is emptied.
    pub fn new(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("itag-{label}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_is_removed_on_drop_and_on_panic() {
        let dir = TempDir::new("guard").unwrap();
        let kept = dir.path().to_path_buf();
        std::fs::write(kept.join("f"), b"x").unwrap();
        assert!(kept.is_dir());
        drop(dir);
        assert!(!kept.exists());

        let (tx, rx) = std::sync::mpsc::channel();
        let unwound = std::thread::spawn(move || {
            let dir = TempDir::new("guard").unwrap();
            tx.send(dir.path().to_path_buf()).unwrap();
            panic!("unwinds through the guard");
        })
        .join();
        assert!(unwound.is_err());
        assert!(!rx.recv().unwrap().exists());
    }

    #[test]
    fn guards_never_share_a_directory() {
        let (a, b) = (TempDir::new("guard").unwrap(), TempDir::new("guard").unwrap());
        assert_ne!(a.path(), b.path());
    }
}
