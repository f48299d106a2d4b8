//! Minimal synchronization primitives over `std::sync`.
//!
//! The crate needs three things the standard library does not expose
//! directly with an ergonomic API:
//!
//! 1. **Poison-free guards.** A panic while holding a lock in one reader
//!    must not wedge every later reader with `PoisonError`; these wrappers
//!    simply take the inner value and continue.
//! 2. **Owned `RwLock` guards.** A [`crate::PageRef`] must keep the page's
//!    frame lock held while being moved around and stored, which a
//!    borrowed `RwLockReadGuard<'a>` cannot do. `OwnedGuard` holds the
//!    `Arc` of the value the lock is a field of, so one reference count
//!    covers both the lock and its neighbours.
//! 3. **`try_lock` contention probing** for the buffer pool's
//!    uncontended-hit counter, and `try_read` for a flush that must not
//!    wait for one page latch while it holds others.
//!
//! The API is a small subset of the `parking_lot` crate's, so swapping a
//! real dependency in later is a one-line change per import. Everything is
//! a thin wrapper; there is no hand-rolled lock algorithm here.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, Arc, TryLockError};

/// A mutual-exclusion lock whose guards never surface poisoning.
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized>(sync::MutexGuard<'a, T>);

impl<T> Mutex<T> {
    /// Create a new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Block until the lock is acquired.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Acquire the lock only if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(g)),
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard(e.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// A readers-writer lock whose guards never surface poisoning.
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

/// Borrowed shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized>(sync::RwLockReadGuard<'a, T>);

/// Borrowed exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Create a new unlocked lock.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Block until shared access is acquired.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Acquire shared access only if no writer holds the lock (or, as the
    /// platform decides, waits for it) right now.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(RwLockReadGuard(g)),
            Err(TryLockError::Poisoned(e)) => Some(RwLockReadGuard(e.into_inner())),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Block until exclusive access is acquired.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T: 'static> RwLock<T> {
    /// Shared lock on the `RwLock` that `project` finds inside `owner`,
    /// as a guard that keeps `owner` alive and so may be moved and stored
    /// freely.
    pub(crate) fn read_owned<O>(
        owner: Arc<O>,
        project: fn(&O) -> &RwLock<T>,
    ) -> OwnedReadGuard<O, T> {
        let guard = project(&owner).0.read().unwrap_or_else(|e| e.into_inner());
        // SAFETY: the transmute only erases the guard's borrow of `owner`.
        // `project`'s signature ties the lock's lifetime to the `&O` it is
        // given, so the lock lives as long as the value inside the `Arc`:
        // that value has a stable heap address however the guard struct is
        // moved, cannot be reached mutably while this clone of the `Arc`
        // exists, and is kept alive by `owner`, which `OwnedGuard` declares
        // *after* `guard` so the lock is released before the count drops.
        // The `'static` guard never leaves the struct: `Deref` hands out
        // borrows bounded by `&self`.
        let guard: sync::RwLockReadGuard<'static, T> = unsafe { std::mem::transmute(guard) };
        OwnedGuard { guard, owner }
    }

    /// Exclusive counterpart of [`RwLock::read_owned`].
    pub(crate) fn write_owned<O>(
        owner: Arc<O>,
        project: fn(&O) -> &RwLock<T>,
    ) -> OwnedWriteGuard<O, T> {
        let guard = project(&owner).0.write().unwrap_or_else(|e| e.into_inner());
        // SAFETY: as in `read_owned`.
        let guard: sync::RwLockWriteGuard<'static, T> = unsafe { std::mem::transmute(guard) };
        OwnedGuard { guard, owner }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Guard `G` over a lock that is a field of `O`, together with the
/// `Arc<O>` that keeps the lock alive.
///
/// Field order is load-bearing: `guard` is declared before `owner` so it
/// is dropped first, releasing the lock before the backing allocation can
/// go away.
pub(crate) struct OwnedGuard<O, G> {
    guard: G,
    owner: Arc<O>,
}

/// Owned shared guard (see [`RwLock::read_owned`]).
pub(crate) type OwnedReadGuard<O, T> = OwnedGuard<O, sync::RwLockReadGuard<'static, T>>;
/// Owned exclusive guard (see [`RwLock::write_owned`]).
pub(crate) type OwnedWriteGuard<O, T> = OwnedGuard<O, sync::RwLockWriteGuard<'static, T>>;

impl<O, G> OwnedGuard<O, G> {
    /// The value the locked field belongs to.
    pub(crate) fn owner(&self) -> &O {
        &self.owner
    }
}

impl<O, G: Deref> Deref for OwnedGuard<O, G> {
    type Target = G::Target;
    fn deref(&self) -> &G::Target {
        &self.guard
    }
}

impl<O, G: DerefMut> DerefMut for OwnedGuard<O, G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.guard
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RwLock(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_survives_panic_while_held() {
        let m = Arc::new(Mutex::new(5));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 5, "lock usable after a holder panicked");
    }

    #[test]
    fn try_lock_reports_contention() {
        let m = Mutex::new(1);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    /// A lock beside other fields, as `Frame` keeps its page bytes.
    struct Slot {
        tag: u32,
        data: RwLock<Vec<u8>>,
    }

    fn slot() -> Arc<Slot> {
        Arc::new(Slot {
            tag: 7,
            data: RwLock::new(vec![1, 2, 3]),
        })
    }

    #[test]
    fn owned_guard_keeps_its_owner_alive() {
        let s = slot();
        let guard = RwLock::read_owned(Arc::clone(&s), |s| &s.data);
        let weak = Arc::downgrade(&s);
        drop(s);
        assert_eq!(*guard, vec![1, 2, 3]);
        assert_eq!(guard.owner().tag, 7);
        // Moving the guard does not move the lock it points into.
        let moved = Box::new(guard);
        assert_eq!(moved.len(), 3);
        drop(moved);
        assert!(weak.upgrade().is_none(), "the guard held the last count");
    }

    #[test]
    fn owned_write_then_read() {
        let s = slot();
        {
            let mut g = RwLock::write_owned(Arc::clone(&s), |s| &s.data);
            g.push(4);
            assert_eq!(g.owner().tag, 7);
        }
        assert_eq!(*s.data.read(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn owned_guards_exclude_like_borrowed_ones() {
        let s = slot();
        let r1 = RwLock::read_owned(Arc::clone(&s), |s| &s.data);
        let r2 = RwLock::read_owned(Arc::clone(&s), |s| &s.data);
        assert!(s.data.0.try_write().is_err(), "readers exclude a writer");
        drop((r1, r2));
        let w = RwLock::write_owned(Arc::clone(&s), |s| &s.data);
        assert!(s.data.0.try_read().is_err(), "a writer excludes readers");
        drop(w);
        assert!(s.data.0.try_read().is_ok());
    }

    #[test]
    fn many_concurrent_readers() {
        let s = slot();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(RwLock::read_owned(Arc::clone(&s), |s| &s.data).len(), 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
