//! Prefix-keyed session store: per-user slots holding an
//! [`Arc<Mutex<SessionEntry>>`] plus lock-free-to-read *snapshots* of
//! each session's history, so lookups and eviction scans never take an
//! entry lock while holding the store lock (lock order is always entry
//! → store, never store → entry).
//!
//! Eviction drops a slot from the map but never touches the entry
//! behind it: any in-flight append holding the `Arc` completes against
//! its own self-contained state and simply re-registers on commit.
//! That is what makes eviction **transparent** — worst case the next
//! event cold-starts; it can never corrupt a sibling session or error.
//!
//! The store also keeps the books for the off-path refresh (DESIGN.md
//! §11): a per-slot flag says a refresh is queued, so a resident
//! session asks for at most one ([`SessionStore::request_refresh`]), and
//! the two halves of the refresh itself —
//! [`SessionStore::take_for_refresh`] and
//! [`SessionStore::publish_refreshed`] — leave LRU order alone, create
//! no slot, and never re-register an evicted entry.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vsan_core::SessionState;

/// The session store's one knob, mirrored by the serve-level
/// `EngineConfig::with_session_capacity` builder.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Maximum live sessions (LRU-evicted beyond this). `0` disables
    /// incremental sessions entirely: every event is a full recompute.
    pub capacity: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig { capacity: 1024 }
    }
}

impl SessionConfig {
    /// The default: 1024 sessions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the session capacity (`0` disables sessions).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }
}

/// The mutable per-session payload, guarded by its own mutex so appends
/// to different users never contend.
#[derive(Debug, Default)]
pub struct SessionEntry {
    /// Every event seen for this session, oldest first.
    pub history: Vec<u32>,
    /// Prepared layer state for `history`. Unprepared means *stale*: an
    /// event leaves it one event behind and a refresh (or the next
    /// event, whichever comes first) prepares it again.
    pub state: SessionState,
}

/// One eviction by LRU capacity, reported to the caller so the serve
/// layer can emit `session.evictions` metrics and `session_evicted`
/// fault events.
#[derive(Debug, Clone, Copy)]
pub struct Eviction {
    /// The evicted session's user id.
    pub user: u64,
}

/// A successful [`SessionStore::longest_prefix_of`] lookup.
pub struct PrefixHit {
    /// Owning user of the cached session.
    pub user: u64,
    /// The cached session's history snapshot (a true prefix of the
    /// query, by construction).
    pub history: Vec<u32>,
    /// Handle to the entry; callers must re-verify `history` under the
    /// entry lock before using the state (snapshots can go stale).
    pub entry: Arc<Mutex<SessionEntry>>,
}

/// One user's slot: the shared entry handle plus the snapshots the
/// store scans without locking the entry.
struct Slot {
    entry: Arc<Mutex<SessionEntry>>,
    history: Vec<u32>,
    prepared: bool,
    bytes: usize,
    tick: u64,
    /// A refresh for this session is queued and not yet taken. Lives and
    /// dies with the slot: if a queued refresh is ever lost, eviction
    /// clears the books.
    refresh_queued: bool,
}

impl Slot {
    fn new(entry: Arc<Mutex<SessionEntry>>, tick: u64) -> Self {
        Slot { entry, history: Vec::new(), prepared: false, bytes: 0, tick, refresh_queued: false }
    }
}

/// LRU-bounded map from user id to session slot.
pub struct SessionStore {
    capacity: usize,
    map: HashMap<u64, Slot>,
    tick: u64,
}

impl SessionStore {
    /// An empty store under `cfg`.
    pub fn new(cfg: &SessionConfig) -> Self {
        SessionStore { capacity: cfg.capacity, map: HashMap::new(), tick: 0 }
    }

    /// Live sessions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no sessions are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Resident bytes across all sessions (as of each slot's last
    /// commit).
    pub fn bytes(&self) -> usize {
        self.map.values().map(|s| s.bytes).sum()
    }

    /// Fetch `user`'s entry handle, creating an empty slot on miss.
    /// Touches the slot for LRU purposes and evicts as needed; the
    /// just-touched slot is never the LRU victim.
    ///
    /// `_now` is unused: it is kept only because the frozen benchmark
    /// surface (`benchmark/src/surface.rs`) passes it.
    pub fn get_or_create(&mut self, user: u64, _now: Instant) -> (Arc<Mutex<SessionEntry>>, Vec<Eviction>) {
        self.tick += 1;
        let tick = self.tick;
        let slot = self
            .map
            .entry(user)
            .or_insert_with(|| Slot::new(Arc::new(Mutex::new(SessionEntry::default())), tick));
        slot.tick = tick;
        let entry = Arc::clone(&slot.entry);
        (entry, self.enforce())
    }

    /// The history/prepared snapshot for `user`, if resident.
    pub fn snapshot(&self, user: u64) -> Option<(&[u32], bool)> {
        self.map.get(&user).map(|s| (s.history.as_slice(), s.prepared))
    }

    /// The *prepared* session (excluding `exclude`) whose history is the
    /// longest true prefix of `query` — ties broken by smallest user id
    /// for determinism. Session states are functions of history alone,
    /// so any user's state for an exact-match history is reusable as-is.
    pub fn longest_prefix_of(&self, query: &[u32], exclude: u64) -> Option<PrefixHit> {
        self.map
            .iter()
            .filter(|(&u, s)| u != exclude && s.prepared && query.starts_with(&s.history))
            .max_by(|(ua, a), (ub, b)| {
                a.history.len().cmp(&b.history.len()).then(ub.cmp(ua))
            })
            .map(|(&user, slot)| PrefixHit {
                user,
                history: slot.history.clone(),
                entry: Arc::clone(&slot.entry),
            })
    }

    /// Publish a session's post-append snapshot (re-registering it if it
    /// was evicted mid-flight), then run the eviction pass. Returns any
    /// evictions performed.
    ///
    /// `_now` is unused: it is kept only because the frozen benchmark
    /// surface (`benchmark/src/surface.rs`) passes it.
    pub fn commit(
        &mut self,
        user: u64,
        entry: &Arc<Mutex<SessionEntry>>,
        history: Vec<u32>,
        prepared: bool,
        bytes: usize,
        _now: Instant,
    ) -> Vec<Eviction> {
        self.tick += 1;
        let tick = self.tick;
        let slot = self.map.entry(user).or_insert_with(|| Slot::new(Arc::clone(entry), tick));
        slot.history = history;
        slot.prepared = prepared;
        slot.bytes = bytes;
        slot.tick = tick;
        self.enforce()
    }

    /// Ask for one refresh of `user`'s state. `true` means the caller
    /// must deliver one [`Self::take_for_refresh`] for this user (the
    /// serve engine posts a message to its worker pool); `false` means
    /// one is queued already, or the user is not resident. One queued
    /// refresh per resident session is what keeps the backlog in the
    /// order of `capacity` however far the pool falls behind. (A session
    /// evicted with its refresh still queued leaves that one message
    /// behind; it finds no slot — or the user's next one — and is
    /// harmless either way.)
    pub fn request_refresh(&mut self, user: u64) -> bool {
        match self.map.get_mut(&user) {
            Some(slot) if !slot.refresh_queued => {
                slot.refresh_queued = true;
                true
            }
            _ => false,
        }
    }

    /// First half of a refresh: clear the queued flag and hand out the
    /// resident entry, in one critical section. Reads the slot and
    /// nothing else — no tick, no eviction pass.
    pub fn take_for_refresh(&mut self, user: u64) -> Option<Arc<Mutex<SessionEntry>>> {
        let slot = self.map.get_mut(&user)?;
        slot.refresh_queued = false;
        Some(Arc::clone(&slot.entry))
    }

    /// Second half: mark `user`'s snapshot prepared, provided the slot
    /// still holds `entry` (the caller prepared it under the entry lock,
    /// under which events also commit, so the history snapshot is
    /// already the one the state was prepared for). `false` — and no
    /// change — when the user was evicted, ended, or re-created since.
    pub fn publish_refreshed(
        &mut self,
        user: u64,
        entry: &Arc<Mutex<SessionEntry>>,
        bytes: usize,
    ) -> bool {
        match self.map.get_mut(&user) {
            Some(slot) if Arc::ptr_eq(&slot.entry, entry) => {
                slot.prepared = true;
                slot.bytes = bytes;
                true
            }
            _ => false,
        }
    }

    /// Drop `user`'s session. `false` when it was not resident.
    pub fn remove(&mut self, user: u64) -> bool {
        self.map.remove(&user).is_some()
    }

    /// LRU trim to capacity, oldest tick first.
    fn enforce(&mut self) -> Vec<Eviction> {
        let mut evictions = Vec::new();
        while self.map.len() > self.capacity.max(1) {
            // LRU victim: the smallest access tick (ties impossible —
            // ticks are unique).
            let victim = self.map.iter().min_by_key(|(_, s)| s.tick).map(|(&u, _)| u);
            match victim {
                Some(user) => {
                    self.map.remove(&user);
                    evictions.push(Eviction { user });
                }
                None => break,
            }
        }
        evictions
    }
}
