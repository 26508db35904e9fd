//! Virtual path type.
//!
//! [`VPath`] is an always-absolute, always-normalized path inside a
//! simulated filesystem. Keeping normalization in the constructor
//! (C-VALIDATE) means every other layer — the COFS placement driver in
//! particular, which hashes parent paths — can treat equal paths as
//! equal strings.

use crate::error::{Errno, FsError};
use std::fmt;

/// An absolute, normalized path in a virtual filesystem.
///
/// Invariants: starts with `/`, contains no empty components, no `.`
/// or `..` components, and does not end with `/` unless it is the
/// root itself.
///
/// # Examples
///
/// ```
/// use vfs::path::VPath;
///
/// let p = VPath::new("/data//run1/./out.dat").unwrap();
/// assert_eq!(p.as_str(), "/data/run1/out.dat");
/// assert_eq!(p.file_name(), Some("out.dat"));
/// assert_eq!(p.parent().unwrap().as_str(), "/data/run1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VPath(String);

impl VPath {
    /// The filesystem root, `/`.
    pub fn root() -> VPath {
        VPath("/".to_string())
    }

    /// Parses and normalizes a path.
    ///
    /// Relative paths are rejected; `.` components are dropped; `..`
    /// components resolve lexically (never above the root); repeated
    /// slashes collapse.
    ///
    /// # Errors
    ///
    /// Returns `EINVAL` if the path is empty or relative, or contains
    /// a NUL byte.
    pub fn new(raw: &str) -> Result<VPath, FsError> {
        if raw.is_empty() || !raw.starts_with('/') {
            return Err(FsError::new(Errno::EINVAL, "path", raw));
        }
        if raw.contains('\0') {
            return Err(FsError::new(Errno::EINVAL, "path", raw));
        }
        let mut parts: Vec<&str> = Vec::new();
        for comp in raw.split('/') {
            match comp {
                "" | "." => {}
                ".." => {
                    parts.pop();
                }
                c => parts.push(c),
            }
        }
        if parts.is_empty() {
            Ok(VPath::root())
        } else {
            Ok(VPath(format!("/{}", parts.join("/"))))
        }
    }

    /// The normalized textual form.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True if this is the root path.
    pub fn is_root(&self) -> bool {
        self.0 == "/"
    }

    /// The final component, or `None` for the root.
    pub fn file_name(&self) -> Option<&str> {
        if self.is_root() {
            None
        } else {
            self.0.rsplit('/').next()
        }
    }

    /// The containing directory, or `None` for the root.
    pub fn parent(&self) -> Option<VPath> {
        if self.is_root() {
            return None;
        }
        match self.0.rfind('/') {
            Some(0) => Some(VPath::root()),
            Some(i) => Some(VPath(self.0[..i].to_string())),
            None => None,
        }
    }

    /// The text of the containing directory, borrowed from this path:
    /// what [`Self::parent`] would return, without allocating. The root
    /// is its own parent here (`"/"`), which is how routing and
    /// placement treat it.
    ///
    /// # Examples
    ///
    /// ```
    /// use vfs::path::{vpath, VPath};
    ///
    /// assert_eq!(vpath("/a/b/c").parent_str(), "/a/b");
    /// assert_eq!(vpath("/a").parent_str(), "/");
    /// assert_eq!(VPath::root().parent_str(), "/");
    /// ```
    pub fn parent_str(&self) -> &str {
        let i = self.0.rfind('/').unwrap_or(0);
        &self.0[..i.max(1)]
    }

    /// Appends one component rendered from `name`, in place: [`Self::join`]
    /// without the intermediate strings of a `format!` per component.
    ///
    /// # Panics
    ///
    /// As [`Self::join`]: the rendered name must be one non-empty
    /// component.
    pub fn push(&mut self, name: impl fmt::Display) {
        use fmt::Write;
        if !self.is_root() {
            self.0.push('/');
        }
        let start = self.0.len();
        write!(self.0, "{name}").expect("writing to a String cannot fail");
        let comp = &self.0[start..];
        assert!(
            !comp.is_empty() && !comp.contains('/'),
            "push expects a single non-empty component, got {comp:?}"
        );
    }

    /// A copy of this path with room for `additional` more bytes of
    /// text, so a run of [`Self::push`] calls on it allocates once.
    pub fn with_room(&self, additional: usize) -> VPath {
        let mut s = String::with_capacity(self.0.len() + additional);
        s.push_str(&self.0);
        VPath(s)
    }

    /// Appends one component.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty or contains `/` — component names come
    /// from directory entries, which can never contain separators.
    pub fn join(&self, name: &str) -> VPath {
        assert!(
            !name.is_empty() && !name.contains('/'),
            "join expects a single non-empty component, got {name:?}"
        );
        if self.is_root() {
            VPath(format!("/{name}"))
        } else {
            VPath(format!("{}/{name}", self.0))
        }
    }

    /// Iterates over the components (excluding the root).
    pub fn components(&self) -> impl Iterator<Item = &str> {
        self.0.split('/').filter(|c| !c.is_empty())
    }

    /// Number of components below the root.
    pub fn depth(&self) -> usize {
        self.components().count()
    }

    /// True if `self` equals `prefix` or lies beneath it.
    pub fn starts_with(&self, prefix: &VPath) -> bool {
        if prefix.is_root() {
            return true;
        }
        self.0 == prefix.0
            || (self.0.starts_with(&prefix.0)
                && self.0.as_bytes().get(prefix.0.len()) == Some(&b'/'))
    }

    /// Re-roots `self` from `from` onto `to`; `None` if `self` is not
    /// under `from`. Used by COFS to map virtual paths into the
    /// underlying layout.
    pub fn rebase(&self, from: &VPath, to: &VPath) -> Option<VPath> {
        if !self.starts_with(from) {
            return None;
        }
        let suffix = if from.is_root() {
            &self.0[..]
        } else {
            &self.0[from.0.len()..]
        };
        let combined = if suffix.is_empty() {
            to.0.clone()
        } else if to.is_root() {
            suffix.to_string()
        } else {
            format!("{}{}", to.0, suffix)
        };
        Some(VPath(combined))
    }
}

impl std::borrow::Borrow<str> for VPath {
    /// A path is keyed by its normalized text, so maps of paths can be
    /// probed with a borrowed slice such as [`VPath::parent_str`].
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// One component met while walking a normalized path's text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step<'a> {
    /// The component's name.
    pub name: &'a str,
    /// Byte offset of the name in the walked text.
    pub start: usize,
    /// Byte offset just past the name.
    pub end: usize,
    /// True for the final component.
    pub last: bool,
}

/// Walks the components of `path`, the text of a [`VPath`] or of one of
/// its ancestors (such as [`VPath::parent_str`]), without allocating.
/// Path resolution uses the offsets to splice a symlink target in with
/// [`splice_link`].
///
/// # Examples
///
/// ```
/// use vfs::path::walk;
///
/// let names: Vec<(&str, bool)> = walk("/a/bc").map(|s| (s.name, s.last)).collect();
/// assert_eq!(names, vec![("a", false), ("bc", true)]);
/// assert_eq!(walk("/").count(), 0);
/// ```
pub fn walk(path: &str) -> impl Iterator<Item = Step<'_>> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let rest = &path[pos..];
        let skipped = rest.len() - rest.trim_start_matches('/').len();
        let start = pos + skipped;
        if start >= path.len() {
            return None;
        }
        let end = path[start..].find('/').map_or(path.len(), |i| start + i);
        pos = end;
        Some(Step {
            name: &path[start..end],
            start,
            end,
            last: path[end..].trim_matches('/').is_empty(),
        })
    })
}

/// The path a resolution continues with after meeting a symlink to
/// `target` at component `at` of `path`: the target (absolute, or
/// relative to the link's directory, with `.` and `..` resolved
/// lexically and never above the root) followed by the components of
/// `path` after the link.
///
/// # Errors
///
/// `EINVAL` if an absolute `target` is not a valid path.
///
/// # Examples
///
/// ```
/// use vfs::path::{splice_link, vpath, walk};
///
/// let path = "/a/link/c";
/// let at = walk(path).nth(1).unwrap();
/// assert_eq!(splice_link(path, at, "../b")?, vpath("/b/c"));
/// assert_eq!(splice_link(path, at, "/x")?, vpath("/x/c"));
/// # Ok::<(), vfs::error::FsError>(())
/// ```
pub fn splice_link(path: &str, at: Step<'_>, target: &str) -> Result<VPath, FsError> {
    let mut full = if target.starts_with('/') {
        VPath::new(target)?
    } else {
        let mut p = VPath::root();
        for c in walk(&path[..at.start]) {
            p = p.join(c.name);
        }
        for part in target.split('/').filter(|c| !c.is_empty()) {
            match part {
                "." => {}
                ".." => p = p.parent().unwrap_or_else(VPath::root),
                c => p = p.join(c),
            }
        }
        p
    };
    for c in walk(&path[at.end..]) {
        full = full.join(c.name);
    }
    Ok(full)
}

impl fmt::Display for VPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl TryFrom<&str> for VPath {
    type Error = FsError;
    fn try_from(value: &str) -> Result<Self, Self::Error> {
        VPath::new(value)
    }
}

impl AsRef<str> for VPath {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Shorthand for `VPath::new(s).expect(..)` in tests and examples
/// where the literal is known valid.
///
/// # Panics
///
/// Panics if `s` is not a valid absolute path.
pub fn vpath(s: &str) -> VPath {
    VPath::new(s).expect("literal path must be valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(vpath("/a//b/./c").as_str(), "/a/b/c");
        assert_eq!(vpath("/a/b/../c").as_str(), "/a/c");
        assert_eq!(vpath("/../..").as_str(), "/");
        assert_eq!(vpath("/a/").as_str(), "/a");
        assert_eq!(vpath("/").as_str(), "/");
    }

    #[test]
    fn relative_and_empty_paths_rejected() {
        assert!(VPath::new("a/b").is_err());
        assert!(VPath::new("").is_err());
        assert!(VPath::new("/a\0b").is_err());
    }

    #[test]
    fn parent_and_file_name() {
        let p = vpath("/a/b/c");
        assert_eq!(p.file_name(), Some("c"));
        assert_eq!(p.parent().unwrap(), vpath("/a/b"));
        assert_eq!(vpath("/a").parent().unwrap(), VPath::root());
        assert_eq!(VPath::root().parent(), None);
        assert_eq!(VPath::root().file_name(), None);
    }

    #[test]
    fn parent_str_matches_parent() {
        for raw in ["/", "/a", "/a/b", "/a/b/cde"] {
            let p = vpath(raw);
            let want = p.parent().unwrap_or_else(VPath::root);
            assert_eq!(p.parent_str(), want.as_str(), "{raw}");
        }
    }

    #[test]
    fn push_matches_join() {
        let mut p = VPath::root().with_room(16);
        p.push(format_args!("n{}", 3));
        p.push("h00ff");
        assert_eq!(p, VPath::root().join("n3").join("h00ff"));
    }

    #[test]
    #[should_panic(expected = "single non-empty component")]
    fn push_rejects_separators() {
        vpath("/a").push("b/c");
    }

    #[test]
    fn walk_offsets_cover_each_component() {
        let path = "/ab/c/def";
        let steps: Vec<Step<'_>> = walk(path).collect();
        assert_eq!(steps.len(), 3);
        for s in &steps {
            assert_eq!(&path[s.start..s.end], s.name);
        }
        assert_eq!(
            steps.iter().map(|s| s.last).collect::<Vec<_>>(),
            vec![false, false, true]
        );
        assert_eq!(
            walk(path).map(|s| s.name).collect::<Vec<_>>(),
            vpath(path).components().collect::<Vec<_>>()
        );
    }

    #[test]
    fn splice_link_resolves_relative_targets_lexically() {
        let path = "/a/l/x";
        let at = walk(path).nth(1).unwrap();
        assert_eq!(splice_link(path, at, "b/./c").unwrap(), vpath("/a/b/c/x"));
        assert_eq!(splice_link(path, at, "../../..").unwrap(), vpath("/x"));
        let last = walk(path).last().unwrap();
        assert_eq!(splice_link(path, last, "y").unwrap(), vpath("/a/l/y"));
        assert!(splice_link(path, at, "/nul\0").is_err());
    }

    #[test]
    fn join_builds_children() {
        assert_eq!(VPath::root().join("a"), vpath("/a"));
        assert_eq!(vpath("/a").join("b"), vpath("/a/b"));
    }

    #[test]
    #[should_panic(expected = "single non-empty component")]
    fn join_rejects_separators() {
        vpath("/a").join("b/c");
    }

    #[test]
    fn components_and_depth() {
        let p = vpath("/x/y/z");
        assert_eq!(p.components().collect::<Vec<_>>(), vec!["x", "y", "z"]);
        assert_eq!(p.depth(), 3);
        assert_eq!(VPath::root().depth(), 0);
    }

    #[test]
    fn starts_with_respects_component_boundaries() {
        assert!(vpath("/a/b").starts_with(&vpath("/a")));
        assert!(vpath("/a").starts_with(&vpath("/a")));
        assert!(!vpath("/ab").starts_with(&vpath("/a")));
        assert!(vpath("/anything").starts_with(&VPath::root()));
    }

    #[test]
    fn rebase_moves_subtrees() {
        let p = vpath("/virt/dir/file");
        assert_eq!(
            p.rebase(&vpath("/virt"), &vpath("/real/h42")).unwrap(),
            vpath("/real/h42/dir/file")
        );
        assert_eq!(p.rebase(&vpath("/other"), &vpath("/real")), None);
        assert_eq!(
            vpath("/virt")
                .rebase(&vpath("/virt"), &vpath("/real"))
                .unwrap(),
            vpath("/real")
        );
        assert_eq!(
            p.rebase(&VPath::root(), &vpath("/real")).unwrap(),
            vpath("/real/virt/dir/file")
        );
        assert_eq!(
            p.rebase(&vpath("/virt"), &VPath::root()).unwrap(),
            vpath("/dir/file")
        );
    }

    #[test]
    fn display_and_conversions() {
        let p = vpath("/a/b");
        assert_eq!(p.to_string(), "/a/b");
        assert_eq!(VPath::try_from("/a/b").unwrap(), p);
        assert_eq!(p.as_ref(), "/a/b");
    }
}
