//! What every result is stamped with, so before/after pairs can be
//! matched to one machine and one source tree.

use std::path::Path;
use std::process::Command;

/// `(key, value)` pairs describing the machine, toolchain and sources.
pub fn environment() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Only a checkout whose own root is here has a commit; asking git
    // elsewhere would report an enclosing repository's HEAD.
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten();
    vec![
        ("commit", commit.unwrap_or_else(|| "unknown".to_owned())),
        (
            "source_fingerprint",
            format!("{:016x}", source_fingerprint(Path::new("."))),
        ),
        ("nproc", nproc.to_string()),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned()),
        ),
    ]
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()
        .map(str::to_owned)
}

/// FNV-1a over the paths and contents of every file under `crates/` and
/// `vendor/` plus the root manifests, in sorted order: identifies the
/// benchmarked sources where no git metadata exists (the hash of nothing
/// when run outside the repository root).
pub fn source_fingerprint(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        collect(&root.join(dir), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock"] {
        let p = root.join(f);
        if p.is_file() {
            files.push(p);
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        eat(f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            eat(&bytes);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        if path.is_dir() {
            collect(&path, out);
        } else if path.is_file() {
            out.push(path);
        }
    }
}
