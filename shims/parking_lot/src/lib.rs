//! Offline drop-in shim for the `parking_lot` API surface this workspace
//! uses: `Mutex` and `RwLock` with non-poisoning, non-`Result` guards.
//!
//! The build environment has no registry access, so external crates are
//! replaced with local path shims (see `shims/` in the workspace root).
//! Semantics match parking_lot closely enough for our purposes: a poisoned
//! std lock (panicking while holding the guard) is unwrapped into the inner
//! guard, mirroring parking_lot's "no poisoning" behaviour.

use std::sync;

pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

pub type MutexGuard<'a, T> = sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(sync::PoisonError::into_inner)
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_tuple("Mutex").field(&&*guard).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(sync::PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(sync::PoisonError::into_inner)
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(g),
            Err(sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0
            .get_mut()
            .unwrap_or_else(sync::PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T> From<T> for RwLock<T> {
    fn from(value: T) -> Self {
        RwLock::new(value)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_read() {
            Some(guard) => f.debug_tuple("RwLock").field(&&*guard).finish(),
            None => f.write_str("RwLock(<locked>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        let read = l.read();
        // A held read guard refuses a writer and admits another reader.
        assert!(l.try_write().is_none());
        assert!(l.try_read().is_some());
        drop(read);
        assert!(l.try_write().is_some());
    }
}
