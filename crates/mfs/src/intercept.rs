//! The one interception layer between a mailbox layout and its
//! [`Backend`] (DESIGN.md §12).
//!
//! Failing a write, tearing it, pricing it and counting it are policies
//! over the same eleven-method pass-through, so the pass-through is
//! written once: [`Intercept`] is the only decorator that implements
//! [`Backend`], and [`crate::FaultyBackend`], [`crate::CrashBackend`] and
//! [`crate::Metered`] are aliases of it. Its [`Policy`] sees each [`Call`]
//! before it runs and answers with a [`Verdict`]; after a call it let
//! through, it learns whether the backend succeeded and whether a write
//! created its file. `append_record` and `replace` are intercepted as the
//! single logical writes they are and forwarded to the backend's own
//! method, so a [`crate::SyncBackend`] underneath holds its lock across
//! header and body.

use crate::{Backend, DataRef, StoreError, StoreResult};
use std::cell::RefCell;
use std::rc::Rc;

/// Which [`Backend`] method is being called: one variant per method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Create,
    Append,
    AppendRecord,
    Replace,
    ReadAt,
    Len,
    Link,
    Remove,
    Truncate,
    Exists,
    List,
}

impl Op {
    /// Whether the operation changes what is stored.
    pub fn is_write(self) -> bool {
        !matches!(self, Op::ReadAt | Op::Len | Op::Exists | Op::List)
    }

    /// Whether the operation writes payload bytes, so that a prefix of it
    /// can land; the other writes are metadata and happen whole or not at
    /// all.
    pub fn carries_data(self) -> bool {
        matches!(self, Op::Append | Op::AppendRecord | Op::Replace)
    }
}

/// One backend operation as a [`Policy`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call<'a> {
    /// The method.
    pub op: Op,
    /// The path operated on (`dst` for a link; the prefix for a list).
    pub path: &'a str,
    /// Payload bytes of a data write (header plus body for a record),
    /// bytes requested by a read, the new length for a truncate; 0
    /// otherwise.
    pub len: u64,
}

/// A policy's decision about a [`Call`] that has not run yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward the operation to the backend.
    Pass,
    /// Do not run it; the caller gets [`StoreError::Io`] with this reason
    /// (`false` from `exists`).
    Fail(&'static str),
    /// Persist only the first `keep` payload bytes of a data write — all
    /// or nothing of a metadata write, by `keep >= 1` — and fail the
    /// operation with this reason. A policy that models a crash fails
    /// every later call itself.
    Tear {
        /// Payload bytes allowed through.
        keep: u64,
        /// Why, for the error.
        reason: &'static str,
    },
}

/// What an [`Intercept`] consults around every operation.
pub trait Policy {
    /// Whether [`Policy::after`] needs `created`; costs one `exists` on
    /// the backend in front of every data write.
    const WANTS_CREATED: bool = false;

    /// Decides about an operation before it runs.
    fn before(&mut self, call: Call<'_>) -> Verdict;

    /// Learns the outcome of an operation [`Policy::before`] passed: `ok`
    /// if the backend succeeded, `created` if a successful data write
    /// found no file at its path (always `false` unless
    /// [`Policy::WANTS_CREATED`]).
    fn after(&mut self, _call: Call<'_>, _ok: bool, _created: bool) {}
}

/// A policy with more than one handle: the [`Intercept`] consults one
/// clone, and its owner reads the tally through another (how the DES
/// prices a layout it holds only as a `Box<dyn MailStore>`).
impl<P: Policy> Policy for Rc<RefCell<P>> {
    const WANTS_CREATED: bool = P::WANTS_CREATED;

    fn before(&mut self, call: Call<'_>) -> Verdict {
        self.borrow_mut().before(call)
    }

    fn after(&mut self, call: Call<'_>, ok: bool, created: bool) {
        self.borrow_mut().after(call, ok, created);
    }
}

/// A [`Backend`] whose every operation passes through a [`Policy`].
#[derive(Debug)]
pub struct Intercept<B, P> {
    inner: B,
    policy: P,
}

impl<B, P> Intercept<B, P> {
    /// Puts `policy` in front of `inner`.
    pub fn with_policy(inner: B, policy: P) -> Intercept<B, P> {
        Intercept { inner, policy }
    }

    /// The policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the policy.
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Consumes the wrapper, returning the backend.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: Backend, P: Policy> Intercept<B, P> {
    /// The one place an operation is failed, torn, forwarded and reported.
    /// `perform(backend, keep)` carries it out with at most the first `keep`
    /// payload bytes ([`DataRef::prefix`] clamps, so `u64::MAX` is all of
    /// them); metadata and reads ignore `keep`.
    fn run<T>(
        &mut self,
        op: Op,
        path: &str,
        len: u64,
        perform: impl FnOnce(&mut B, u64) -> StoreResult<T>,
    ) -> StoreResult<T> {
        let call = Call { op, path, len };
        match self.policy.before(call) {
            Verdict::Pass => {
                let absent = P::WANTS_CREATED && op.carries_data() && !self.inner.exists(path);
                let out = perform(&mut self.inner, u64::MAX);
                self.policy.after(call, out.is_ok(), absent && out.is_ok());
                out
            }
            Verdict::Fail(reason) => Err(StoreError::Io(reason.to_owned())),
            Verdict::Tear { keep, reason } => {
                if keep > 0 {
                    perform(&mut self.inner, keep)?;
                }
                Err(StoreError::Io(reason.to_owned()))
            }
        }
    }
}

impl<B: Backend, P: Policy> Backend for Intercept<B, P> {
    fn create(&mut self, path: &str) -> StoreResult<()> {
        self.run(Op::Create, path, 0, |b, _| b.create(path))
    }

    fn append(&mut self, path: &str, data: DataRef<'_>) -> StoreResult<u64> {
        self.run(Op::Append, path, data.len(), |b, keep| {
            b.append(path, data.prefix(keep))
        })
    }

    fn read_at(&mut self, path: &str, offset: u64, len: u64) -> StoreResult<Vec<u8>> {
        self.run(Op::ReadAt, path, len, |b, _| b.read_at(path, offset, len))
    }

    fn len(&mut self, path: &str) -> StoreResult<u64> {
        self.run(Op::Len, path, 0, |b, _| b.len(path))
    }

    fn link(&mut self, src: &str, dst: &str) -> StoreResult<()> {
        self.run(Op::Link, dst, 0, |b, _| b.link(src, dst))
    }

    fn remove(&mut self, path: &str) -> StoreResult<()> {
        self.run(Op::Remove, path, 0, |b, _| b.remove(path))
    }

    fn truncate(&mut self, path: &str, len: u64) -> StoreResult<()> {
        self.run(Op::Truncate, path, len, |b, _| b.truncate(path, len))
    }

    fn exists(&mut self, path: &str) -> bool {
        self.run(Op::Exists, path, 0, |b, _| Ok(b.exists(path)))
            .unwrap_or(false)
    }

    fn list(&mut self, prefix: &str) -> StoreResult<Vec<String>> {
        self.run(Op::List, prefix, 0, |b, _| b.list(prefix))
    }

    fn replace(&mut self, path: &str, data: DataRef<'_>) -> StoreResult<()> {
        self.run(Op::Replace, path, data.len(), |b, keep| {
            b.replace(path, data.prefix(keep))
        })
    }

    fn append_record(&mut self, path: &str, header: &[u8], body: DataRef<'_>) -> StoreResult<u64> {
        let head = header.len() as u64;
        // A cut inside the header lands a header prefix; one past it, the
        // whole header and a body prefix.
        self.run(Op::AppendRecord, path, head + body.len(), |b, keep| {
            if keep < head {
                b.append(path, DataRef::Bytes(&header[..keep as usize]))
            } else {
                b.append_record(path, header, body.prefix(keep - head))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemFs;

    /// Passes everything and writes down what it was shown.
    #[derive(Debug, Default)]
    struct Recorder {
        before: Vec<(Op, String, u64)>,
        after: Vec<(Op, bool)>,
    }

    impl Policy for Recorder {
        fn before(&mut self, call: Call<'_>) -> Verdict {
            self.before.push((call.op, call.path.to_owned(), call.len));
            Verdict::Pass
        }
        fn after(&mut self, call: Call<'_>, ok: bool, created: bool) {
            assert!(!created, "not asked for");
            self.after.push((call.op, ok));
        }
    }

    type Recording<B> = Intercept<B, Recorder>;

    /// Two recorders stacked: the outer one is the policy under test, the
    /// inner one stands where the backend is and sees what reaches it.
    #[test]
    fn every_method_reaches_the_policy_once_and_the_backend_once() {
        let mut fs: Recording<Recording<MemFs>> = Intercept::with_policy(
            Intercept::with_policy(MemFs::new(), Recorder::default()),
            Recorder::default(),
        );
        let mut expect = Vec::new();
        let mut step = |fs: &mut Recording<Recording<MemFs>>, op: Op, path: &str, len: u64| {
            expect.push((op, path.to_owned(), len));
            assert_eq!(fs.policy().before, expect, "policy, at {op:?}");
            assert_eq!(fs.inner().policy().before, expect, "backend, at {op:?}");
            assert_eq!(fs.policy().after.last(), Some(&(op, true)), "{op:?}");
            assert_eq!(fs.policy().after.len(), expect.len(), "{op:?}");
        };
        fs.create("a").unwrap();
        step(&mut fs, Op::Create, "a", 0);
        assert_eq!(fs.append("a", DataRef::Bytes(b"abc")).unwrap(), 0);
        step(&mut fs, Op::Append, "a", 3);
        assert_eq!(fs.append_record("a", b"hd", DataRef::Zeros(4)).unwrap(), 3);
        step(&mut fs, Op::AppendRecord, "a", 6);
        assert_eq!(fs.read_at("a", 1, 4).unwrap(), b"bchd");
        step(&mut fs, Op::ReadAt, "a", 4);
        assert_eq!(fs.len("a").unwrap(), 9);
        step(&mut fs, Op::Len, "a", 0);
        fs.link("a", "b").unwrap();
        step(&mut fs, Op::Link, "b", 0);
        fs.truncate("a", 2).unwrap();
        step(&mut fs, Op::Truncate, "a", 2);
        fs.replace("a", DataRef::Bytes(b"fresh")).unwrap();
        step(&mut fs, Op::Replace, "a", 5);
        assert!(fs.exists("b"));
        step(&mut fs, Op::Exists, "b", 0);
        assert_eq!(fs.list("").unwrap(), ["a", "b"]);
        step(&mut fs, Op::List, "", 0);
        fs.remove("b").unwrap();
        step(&mut fs, Op::Remove, "b", 0);
        assert_eq!(expect.len(), 11, "one step per Backend method");

        assert!(fs.read_at("gone", 0, 1).is_err());
        assert_eq!(fs.policy().after.last(), Some(&(Op::ReadAt, false)));
    }

    /// Fails or tears the one call it is armed for.
    struct Once(Option<Verdict>);

    impl Policy for Once {
        fn before(&mut self, _call: Call<'_>) -> Verdict {
            self.0.take().unwrap_or(Verdict::Pass)
        }
        fn after(&mut self, _call: Call<'_>, _ok: bool, _created: bool) {
            panic!("`after` is for calls that were passed");
        }
    }

    fn armed(verdict: Verdict) -> Intercept<MemFs, Once> {
        let mut fs = MemFs::new();
        fs.append("f", DataRef::Bytes(b"old")).unwrap();
        Intercept::with_policy(fs, Once(Some(verdict)))
    }

    #[test]
    fn a_failed_call_never_reaches_the_backend() {
        let mut fs = armed(Verdict::Fail("no"));
        assert_eq!(
            fs.append("f", DataRef::Bytes(b"new")),
            Err(StoreError::Io("no".to_owned()))
        );
        assert_eq!(fs.into_inner().len("f").unwrap(), 3);
        let mut fs = armed(Verdict::Fail("no"));
        assert!(!fs.exists("f"), "a failed `exists` is false");
    }

    #[test]
    fn a_torn_call_lands_its_prefix_and_fails() {
        let tear = |keep| Verdict::Tear {
            keep,
            reason: "cut",
        };
        let content = |fs: Intercept<MemFs, Once>| {
            let mut fs = fs.into_inner();
            let len = fs.len("f").unwrap();
            fs.read_at("f", 0, len).unwrap()
        };

        let mut fs = armed(tear(2));
        assert!(fs.append("f", DataRef::Bytes(b"new")).is_err());
        assert_eq!(content(fs), b"oldne");

        let mut fs = armed(tear(1));
        assert!(fs
            .append_record("f", b"hd", DataRef::Bytes(b"body"))
            .is_err());
        assert_eq!(content(fs), b"oldh");
        let mut fs = armed(tear(3));
        assert!(fs
            .append_record("f", b"hd", DataRef::Bytes(b"body"))
            .is_err());
        assert_eq!(content(fs), b"oldhdb");

        let mut fs = armed(tear(2));
        assert!(fs.replace("f", DataRef::Bytes(b"new")).is_err());
        assert_eq!(content(fs), b"ne");
        let mut fs = armed(tear(0));
        assert!(fs.replace("f", DataRef::Bytes(b"new")).is_err());
        assert_eq!(content(fs), b"old");

        let mut fs = armed(tear(1));
        assert!(fs.remove("f").is_err());
        assert!(!fs.into_inner().exists("f"), "metadata lands whole");
        let mut fs = armed(tear(0));
        assert!(fs.remove("f").is_err());
        assert!(fs.into_inner().exists("f"), "or not at all");
    }
}
