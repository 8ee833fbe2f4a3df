//! The cross-file workspace graph: call edges between modelled functions
//! and reachability queries over them.
//!
//! Resolution is by bare name — the model has no type information — with
//! two precision guards: a stoplist of ubiquitous names (`new`, `insert`,
//! `map`, the `StableStorage` verbs …) that would connect everything to
//! everything, and a fan-out cap that drops a name resolving to more
//! candidates than any genuine call target set in this workspace.  Both
//! guards make the graph *sparser* than reality, so L1's held-lock call
//! edges degrade towards silence rather than noise.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::{CallSite, FileModel};

/// A function node: `(file index, fn index within the file)`.
pub type FnNode = (usize, usize);

/// Names never resolved to call edges: prelude/collection vocabulary plus
/// the `StableStorage`/`WriteBatch` verbs, whose dozens of impls would
/// fuse the whole workspace into one component.
#[rustfmt::skip]
const CALL_STOPLIST: [&str; 76] = [
    "keys", "values",
    "new", "default", "clone", "len", "is_empty", "iter", "iter_mut", "into_iter", "next", "get",
    "get_mut", "push", "pop", "insert", "contains", "contains_key", "entry", "clear", "drain",
    "retain", "extend", "unwrap", "unwrap_or", "unwrap_or_else", "unwrap_or_default", "expect",
    "map", "map_err", "and_then", "or_else", "ok", "err", "ok_or", "ok_or_else", "filter",
    "collect", "take", "replace", "to_string", "to_owned", "into", "from", "try_from", "as_ref",
    "as_mut", "as_str", "as_slice", "as_bytes", "fmt", "eq", "cmp", "partial_cmp", "hash", "drop",
    "write", "read", "flush", "send", "recv", "lock", "min", "max", "first", "last", "position",
    "find", "any", "all", "count", "enumerate", "store", "load", "append", "remove",
];

/// Names above this many candidates are too ambiguous to mean one thing.
const FAN_OUT_CAP: usize = 8;

/// The modelled workspace plus its call graph.
pub struct Workspace {
    pub files: Vec<FileModel>,
    /// Production functions by bare name.
    index: BTreeMap<String, Vec<FnNode>>,
    /// Forward call edges, deduplicated.
    edges: BTreeMap<FnNode, BTreeSet<FnNode>>,
}

impl Workspace {
    pub fn build(mut files: Vec<FileModel>) -> Workspace {
        // A directory module's submodules reach the parent's shared state
        // through a handle (`shared.comp.lock()` from `wal/compactor.rs`,
        // where `comp` is a field of a struct declared in `wal/mod.rs`), so
        // a purely per-file lock vocabulary would model no holds in the
        // submodule at all.  Extend each `mod.rs` vocabulary to its sibling
        // files; names stay workspace-scoped strings, so this only adds
        // holds the per-file pass would have silently dropped.
        let mut dir_locks: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for file in &files {
            if let Some(dir) = file.path.strip_suffix("/mod.rs") {
                dir_locks.insert(dir.to_string(), file.locks.clone());
            }
        }
        for file in &mut files {
            if file.path.ends_with("/mod.rs") {
                continue;
            }
            if let Some((dir, _)) = file.path.rsplit_once('/') {
                if let Some(parent_locks) = dir_locks.get(dir) {
                    file.locks.extend(parent_locks.iter().cloned());
                }
            }
        }

        // Index production (non-test) functions by bare name.
        let mut index: BTreeMap<String, Vec<FnNode>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                if !f.in_test {
                    index.entry(f.name.clone()).or_default().push((fi, ni));
                }
            }
        }

        let mut edges: BTreeMap<FnNode, BTreeSet<FnNode>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                for call in &f.calls {
                    for target in resolve_with(&files, &index, fi, call) {
                        if target == (fi, ni) {
                            continue;
                        }
                        edges.entry((fi, ni)).or_default().insert(target);
                    }
                }
            }
        }
        Workspace {
            files,
            index,
            edges,
        }
    }

    /// Call targets of `call` made from a function in file `from`.
    pub fn resolve(&self, from: usize, call: &CallSite) -> Vec<FnNode> {
        resolve_with(&self.files, &self.index, from, call)
    }

    /// Every function reachable from `start` along call edges, including
    /// `start` itself.
    pub fn callee_closure(&self, start: FnNode) -> BTreeSet<FnNode> {
        let mut seen: BTreeSet<FnNode> = BTreeSet::new();
        let mut queue = vec![start];
        while let Some(n) = queue.pop() {
            if !seen.insert(n) {
                continue;
            }
            for next in self.edges.get(&n).into_iter().flatten() {
                if !seen.contains(next) {
                    queue.push(*next);
                }
            }
        }
        seen
    }

    /// `fn (path)` context string for messages.
    pub fn describe(&self, n: FnNode) -> String {
        let file = &self.files[n.0];
        format!("{} ({})", file.fns[n.1].name, file.path)
    }
}

fn resolve_with(
    files: &[FileModel],
    index: &BTreeMap<String, Vec<FnNode>>,
    from: usize,
    call: &CallSite,
) -> Vec<FnNode> {
    if CALL_STOPLIST.contains(&call.name.as_str()) {
        return Vec::new();
    }
    // Same-file candidates bind tightest: private helpers shadow
    // same-named functions elsewhere in the workspace.
    let local: Vec<FnNode> = files[from]
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.name == call.name && !f.in_test)
        .map(|(ni, _)| (from, ni))
        .collect();
    if !local.is_empty() {
        return local;
    }
    let global = index.get(call.name.as_str()).cloned().unwrap_or_default();
    if global.len() > FAN_OUT_CAP {
        return Vec::new();
    }
    global
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> FileModel {
        FileModel::build(path, src)
    }

    #[test]
    fn cross_file_edges_and_transitive_reach() {
        let a = file(
            "crates/core/src/a.rs",
            "pub fn on_start() { restore_floor(); }\nfn restore_floor() { read_slot(); }\n",
        );
        let b = file(
            "crates/core/src/b.rs",
            "pub fn read_slot() {}\npub fn unrelated() { helper(); }\nfn helper() {}\n",
        );
        let ws = Workspace::build(vec![a, b]);
        let names: BTreeSet<String> = ws
            .callee_closure((0, 0))
            .iter()
            .map(|&(fi, ni)| ws.files[fi].fns[ni].name.clone())
            .collect();
        assert!(names.contains("on_start"));
        assert!(names.contains("restore_floor"));
        assert!(names.contains("read_slot"));
        assert!(!names.contains("unrelated"));
        assert!(!names.contains("helper"));
    }

    #[test]
    fn stoplist_and_fan_out_guard_precision() {
        let mut sources = vec![file(
            "crates/core/src/caller.rs",
            "pub fn caller(v: &mut Vec<u32>) { v.insert(0, 1); spread(); }\n",
        )];
        for i in 0..9 {
            sources.push(file(
                &format!("crates/core/src/s{i}.rs"),
                "pub fn spread() {}\n",
            ));
        }
        let ws = Workspace::build(sources);
        // `insert` is stoplisted and `spread` exceeds the fan-out cap, so
        // the caller has no outgoing edges at all.
        assert_eq!(ws.callee_closure((0, 0)).len(), 1);
    }

    #[test]
    fn same_file_helpers_shadow_global_candidates() {
        let a = file(
            "crates/core/src/a.rs",
            "pub fn go() { helper(); }\nfn helper() { marker_a(); }\nfn marker_a() {}\n",
        );
        let b = file("crates/core/src/b.rs", "pub fn helper() { }\n");
        let ws = Workspace::build(vec![a, b]);
        let closure = ws.callee_closure((0, 0));
        assert!(closure.contains(&(0, 1)));
        assert!(!closure.contains(&(1, 0)));
    }
}
