//! Specification of the directory-iteration commands: `opendir`, `readdir`,
//! `rewinddir`, `closedir`.
//!
//! `readdir` is the command with the most intricate nondeterminism (§3): the
//! allowed entries are maintained as *must*/*may* sets on the directory
//! handle, which are updated whenever the underlying directory is modified
//! while the handle is open.

use crate::commands::RetValue;
use crate::coverage::spec_point;
use crate::errno::Errno;
use crate::fs_ops::{CmdOutcome, SpecCtx};
use crate::monad::Checks;
use crate::os::{DirHandleState, Pending};
use crate::path::{FollowLast, ParsedPath, ResName};
use crate::perms::Access;
use crate::types::DirHandleId;

/// `opendir(path)`: open a directory stream.
pub fn spec_opendir(ctx: &SpecCtx<'_>, path: &ParsedPath) -> CmdOutcome {
    let res = ctx.resolve(path, FollowLast::Follow);
    match res {
        ResName::Err(e) => {
            spec_point("opendir/resolution_error");
            CmdOutcome::error(e)
        }
        ResName::None { .. } => {
            spec_point("opendir/target_missing_enoent");
            CmdOutcome::error(Errno::ENOENT)
        }
        ResName::File { .. } => {
            spec_point("opendir/target_is_file_enotdir");
            CmdOutcome::error(Errno::ENOTDIR)
        }
        ResName::Dir { dref, .. } => {
            let checks = if ctx.dir_access(dref, Access::Read) {
                Checks::ok()
            } else {
                spec_point("opendir/read_permission_denied_eacces");
                Checks::fail(Errno::EACCES)
            };
            if !checks.allows_success() {
                return CmdOutcome::from_checks(checks);
            }
            spec_point("opendir/success");
            let entries = ctx.st.heap.entry_names(dref);
            let handle = DirHandleState::open(dref, entries);
            CmdOutcome::from_checks(checks)
                .with_success(ctx.st.clone(), Pending::NewDirHandle { handle })
        }
    }
}

/// `readdir(dh)`: return the next directory entry (or end-of-directory).
pub fn spec_readdir(ctx: &SpecCtx<'_>, dh: DirHandleId) -> CmdOutcome {
    let Some(proc) = ctx.st.proc(ctx.pid) else {
        return CmdOutcome::error(Errno::EBADF);
    };
    if !proc.dir_handles.contains_key(&dh) {
        spec_point("readdir/bad_handle_ebadf");
        return CmdOutcome::error(Errno::EBADF);
    }
    spec_point("readdir/success");
    // The state is unchanged until the observed entry arrives; the pending
    // return constrains the allowed entries via the handle's must/may sets.
    CmdOutcome::from_checks(Checks::ok())
        .with_success(ctx.st.clone(), Pending::ReaddirEntry { dh })
}

/// `rewinddir(dh)`: reset a directory stream to the current directory
/// contents.
pub fn spec_rewinddir(ctx: &SpecCtx<'_>, dh: DirHandleId) -> CmdOutcome {
    let Some(proc) = ctx.st.proc(ctx.pid) else {
        return CmdOutcome::error(Errno::EBADF);
    };
    let Some(handle) = proc.dir_handles.get(&dh) else {
        spec_point("rewinddir/bad_handle_ebadf");
        return CmdOutcome::error(Errno::EBADF);
    };
    spec_point("rewinddir/success");
    let dir = handle.dir;
    let entries = ctx.st.heap.entry_names(dir);
    let mut new_st = ctx.st.clone();
    if let Some(p) = new_st.proc_mut(ctx.pid) {
        p.dir_handles.insert(dh, DirHandleState::open(dir, entries));
    }
    CmdOutcome::from_checks(Checks::ok()).with_value(new_st, RetValue::None)
}

/// `closedir(dh)`: close a directory stream.
pub fn spec_closedir(ctx: &SpecCtx<'_>, dh: DirHandleId) -> CmdOutcome {
    let Some(proc) = ctx.st.proc(ctx.pid) else {
        return CmdOutcome::error(Errno::EBADF);
    };
    if !proc.dir_handles.contains_key(&dh) {
        spec_point("closedir/bad_handle_ebadf");
        return CmdOutcome::error(Errno::EBADF);
    }
    spec_point("closedir/success");
    let mut new_st = ctx.st.clone();
    if let Some(p) = new_st.proc_mut(ctx.pid) {
        p.dir_handles.remove(&dh);
    }
    CmdOutcome::from_checks(Checks::ok()).with_value(new_st, RetValue::None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::OsCommand;
    use crate::flags::FileMode;
    use crate::flavor::{Flavor, SpecConfig};
    use crate::fs_ops::dispatch;
    use crate::os::OsState;
    use crate::types::INITIAL_PID;

    fn setup() -> (SpecConfig, OsState) {
        let cfg = SpecConfig::standard(Flavor::Linux);
        let st = OsState::initial_with_process(&cfg, INITIAL_PID);
        (cfg, st)
    }

    fn run(cfg: &SpecConfig, st: &OsState, cmd: OsCommand) -> CmdOutcome {
        dispatch(cfg, st, INITIAL_PID, &cmd)
    }

    fn ok(out: &CmdOutcome) -> OsState {
        assert!(!out.successes.is_empty(), "expected success, got {:?}", out.errors);
        out.successes[0].0.clone()
    }

    /// Bind an opendir success to a handle id, as the transition function
    /// would when the observed value arrives.
    fn bind_dh(out: &CmdOutcome, id: i32) -> OsState {
        let (st, pending) = &out.successes[0];
        let mut st = st.clone();
        match pending {
            Pending::NewDirHandle { handle } => {
                st.proc_mut(INITIAL_PID).unwrap().dir_handles.insert(DirHandleId(id), handle.clone());
            }
            other => panic!("expected NewDirHandle, got {other:?}"),
        }
        st
    }

    #[test]
    fn opendir_snapshot_contains_current_entries() {
        let (cfg, st) = setup();
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d/a".into(), FileMode::new(0o777))));
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d/b".into(), FileMode::new(0o777))));
        let out = run(&cfg, &st, OsCommand::Opendir("/d".into()));
        match &out.successes[0].1 {
            Pending::NewDirHandle { handle } => {
                assert_eq!(handle.must.len(), 2);
                assert!(
                    handle.must.contains(&"a".into()) && handle.must.contains(&"b".into())
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn opendir_errors() {
        let (cfg, st) = setup();
        let out = run(&cfg, &st, OsCommand::Opendir("/missing".into()));
        assert!(out.errors.contains(&Errno::ENOENT));
        let st = ok(&run(
            &cfg,
            &st,
            OsCommand::Open("/f".into(), crate::flags::OpenFlags::O_CREAT, Some(FileMode::new(0o644))),
        ));
        let out = run(&cfg, &st, OsCommand::Opendir("/f".into()));
        assert!(out.errors.contains(&Errno::ENOTDIR));
    }

    #[test]
    fn readdir_on_open_handle_and_bad_handle() {
        let (cfg, st) = setup();
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let out = run(&cfg, &st, OsCommand::Opendir("/d".into()));
        let st = bind_dh(&out, 1);
        let out = run(&cfg, &st, OsCommand::Readdir(DirHandleId(1)));
        assert!(matches!(out.successes[0].1, Pending::ReaddirEntry { .. }));
        let out = run(&cfg, &st, OsCommand::Readdir(DirHandleId(9)));
        assert!(out.errors.contains(&Errno::EBADF));
    }

    #[test]
    fn modifications_while_handle_open_update_must_may() {
        let (cfg, st) = setup();
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d/a".into(), FileMode::new(0o777))));
        let out = run(&cfg, &st, OsCommand::Opendir("/d".into()));
        let st = bind_dh(&out, 1);
        // Remove "a" and create "b" while the handle is open.
        let st = ok(&run(&cfg, &st, OsCommand::Rmdir("/d/a".into())));
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d/b".into(), FileMode::new(0o777))));
        let dh = st.proc(INITIAL_PID).unwrap().dir_handles.get(&DirHandleId(1)).unwrap();
        assert!(dh.must.is_empty());
        assert!(dh.may.contains(&"a".into()));
        assert!(dh.may.contains(&"b".into()));
        assert!(dh.may_finish());
    }

    #[test]
    fn rewinddir_resets_to_current_contents() {
        let (cfg, st) = setup();
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d/a".into(), FileMode::new(0o777))));
        let out = run(&cfg, &st, OsCommand::Opendir("/d".into()));
        let st = bind_dh(&out, 1);
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d/b".into(), FileMode::new(0o777))));
        let st = ok(&run(&cfg, &st, OsCommand::Rewinddir(DirHandleId(1))));
        let dh = st.proc(INITIAL_PID).unwrap().dir_handles.get(&DirHandleId(1)).unwrap();
        assert_eq!(dh.must.len(), 2);
        assert!(dh.may.is_empty());
        assert!(dh.returned.is_empty());
    }

    #[test]
    fn closedir_removes_handle() {
        let (cfg, st) = setup();
        let st = ok(&run(&cfg, &st, OsCommand::Mkdir("/d".into(), FileMode::new(0o777))));
        let out = run(&cfg, &st, OsCommand::Opendir("/d".into()));
        let st = bind_dh(&out, 1);
        let st = ok(&run(&cfg, &st, OsCommand::Closedir(DirHandleId(1))));
        assert!(st.proc(INITIAL_PID).unwrap().dir_handles.is_empty());
        let out = run(&cfg, &st, OsCommand::Closedir(DirHandleId(1)));
        assert!(out.errors.contains(&Errno::EBADF));
    }
}
