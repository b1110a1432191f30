//! Group commit across a batch of requests handled on one thread.
//!
//! A durable store acknowledges a mutation only once its log record is
//! on disk. A server that handles several requests in a row on one
//! thread would pay one fsync wait per request. Inside [`run`], the
//! store hands its wait to [`defer_wait`] instead, and `run` performs
//! every deferred wait after the whole batch, so one fsync can cover
//! the batch. Work that must happen only once the batch is durable
//! (remembering an outcome for replay) goes to [`after_durable`].
//!
//! Outside a scope both calls act at once, so in-process callers see
//! no difference.

use std::cell::RefCell;

use crate::OsnError;

type Wait = Box<dyn FnOnce() -> Result<(), OsnError>>;
type Action = Box<dyn FnOnce()>;

#[derive(Default)]
struct Scope {
    waits: Vec<Wait>,
    actions: Vec<Action>,
}

thread_local! {
    static SCOPE: RefCell<Option<Scope>> = const { RefCell::new(None) };
}

/// Runs `f` as one batch, then every wait it deferred, in order, and,
/// only if all of them succeeded, every action queued for after
/// durability. Returns `f`'s result and the first wait error.
pub fn run<T>(f: impl FnOnce() -> T) -> (T, Result<(), OsnError>) {
    let outer = SCOPE.with(|s| s.replace(Some(Scope::default())));
    let out = f();
    let scope = SCOPE.with(|s| s.replace(outer)).unwrap_or_default();
    let mut durable = Ok(());
    for wait in scope.waits {
        let waited = wait(); // every wait runs, even after a failure
        durable = durable.and(waited);
    }
    if durable.is_ok() {
        scope.actions.into_iter().for_each(|action| action());
    }
    (out, durable)
}

/// Moves `item` into the current scope with `push` and returns `None`;
/// outside a scope, hands it back.
fn enqueue<T>(item: T, push: impl FnOnce(&mut Scope, T)) -> Option<T> {
    SCOPE.with(|s| match s.borrow_mut().as_mut() {
        Some(scope) => {
            push(scope, item);
            None
        }
        None => Some(item),
    })
}

/// Defers `wait` to the end of the current [`run`] scope and returns
/// `Ok`; outside a scope, waits at once.
///
/// # Errors
///
/// Outside a scope, whatever `wait` returned.
pub fn defer_wait(wait: impl FnOnce() -> Result<(), OsnError> + 'static) -> Result<(), OsnError> {
    match enqueue(wait, |scope, wait| scope.waits.push(Box::new(wait))) {
        Some(wait) => wait(),
        None => Ok(()),
    }
}

/// Queues `action` until the current [`run`] scope's waits succeed
/// (dropping it if one fails); outside a scope, runs it at once.
pub fn after_durable(action: impl FnOnce() + 'static) {
    if let Some(action) = enqueue(action, |scope, action| scope.actions.push(Box::new(action))) {
        action();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn waits_run_after_the_batch_and_actions_only_once_all_succeed() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let note = |name: &'static str, ok: bool| {
            let log = Rc::clone(&log);
            move || {
                log.borrow_mut().push(name);
                if ok {
                    Ok(())
                } else {
                    Err(OsnError::Transport)
                }
            }
        };
        let act = |name| {
            let logged = note(name, true);
            move || {
                let _ = logged();
            }
        };
        // Outside a scope everything happens at once.
        assert_eq!(defer_wait(note("w0", false)), Err(OsnError::Transport));
        after_durable(act("a0"));
        let (out, durable) = run(|| {
            assert_eq!(defer_wait(note("w1", true)), Ok(()));
            after_durable(act("a1"));
            assert_eq!(defer_wait(note("w2", true)), Ok(()));
            log.borrow_mut().push("batch");
            7
        });
        assert_eq!((out, durable), (7, Ok(())));
        // A failed wait: every wait still runs, no queued action does.
        let ((), durable) = run(|| {
            after_durable(act("a3"));
            let _ = defer_wait(note("w3", false));
            let _ = defer_wait(note("w4", true));
        });
        assert_eq!(durable, Err(OsnError::Transport));
        assert_eq!(*log.borrow(), ["w0", "a0", "batch", "w1", "w2", "a1", "w3", "w4"]);
    }
}
