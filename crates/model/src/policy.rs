//! Cloaking policies (Definition 4) and bulk per-snapshot policies.

use crate::{AnonymizedRequest, LocationDb, ModelError, RequestId, ServiceRequest, UserId};
use lbs_geom::{Area, Region};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A deterministic cloaking procedure — the paper's Definition 4, restricted
/// to the *masking* policies the paper studies (the cloak must contain the
/// sender's location).
///
/// The request parameters `V` never influence cloak choice in any algorithm
/// of the paper, so implementations cloak a *user* within a snapshot; the
/// full `(D, SR) → AR` function of Definition 4 is recovered by
/// [`CloakingPolicy::anonymize`].
pub trait CloakingPolicy {
    /// Human-readable policy name, used in experiment output.
    fn name(&self) -> &str;

    /// The cloak assigned to `user` under snapshot `db`, or `None` when the
    /// policy cannot anonymize this user (e.g. fewer than k users exist).
    fn cloak(&self, db: &LocationDb, user: UserId) -> Option<Region>;

    /// Definition 4 proper: maps a service request to an anonymized request.
    fn anonymize(
        &self,
        db: &LocationDb,
        sr: &ServiceRequest,
        rid: RequestId,
    ) -> Option<AnonymizedRequest> {
        if !sr.is_valid(db) {
            return None;
        }
        let region = self.cloak(db, sr.user)?;
        debug_assert!(region.contains(&sr.location), "policy must be masking");
        Some(AnonymizedRequest::new(rid, region, sr.params.clone()))
    }

    /// Materializes the policy for every user of `db` — the request set used
    /// by Definition 8's `Cost(P, D)` ("every user sends precisely one
    /// request"). Users the policy cannot anonymize are omitted.
    fn materialize(&self, db: &LocationDb) -> BulkPolicy {
        let assignments =
            db.iter().filter_map(|(user, _)| Some((user, self.cloak(db, user)?))).collect();
        BulkPolicy::from_assignments(self.name(), assignments)
    }
}

/// A fully materialized policy for one snapshot: a total map from users to
/// cloaks (the overloaded notion of Section IV, footnote 1).
///
/// This is what bulk anonymization computes, what `Cost(P, D)` is defined
/// over, and what a policy-aware attacker knows in its entirety.
///
/// Every group of a policy-aware k-anonymous policy has at least k
/// members (Lemma 3), so a policy holds at most n/k distinct cloaks. The
/// representation is three columns rather than a cloak per user:
/// - `users`, strictly ascending, so a lookup is a binary search and
///   [`BulkPolicy::iter`] is deterministic;
/// - `cloak_ids`, parallel to `users`, each an index into `cloaks`;
/// - `cloaks`, the cloak table: distinct regions, each used by at least
///   one user, numbered in order of first use along `users`.
///
/// A cloak id therefore names a cloak group, and the table layout is a
/// function of the assignments alone: equal policies have equal columns.
/// Any [`Region`] fits the table, circles included.
///
/// A lookup reads a bucket index of the user column, built on first use
/// and dropped by every change to the users.
#[derive(Debug, Clone, Default)]
pub struct BulkPolicy {
    name: String,
    users: Vec<UserId>,
    cloak_ids: Vec<u32>,
    cloaks: Vec<Region>,
    index: OnceLock<UserIndex>,
}

/// The user column cut into buckets of equal id span, about one per four
/// users: a lookup reads its bucket's bounds, then searches the few users
/// between them, a handful of cache misses where a binary search over
/// millions of users takes one per halving. Ids spread unevenly put more
/// users in some buckets; a bucket's search is a binary search, so no
/// lookup costs more than one over the whole column.
#[derive(Debug, Clone, Default)]
struct UserIndex {
    /// The smallest user id.
    base: u64,
    /// Bucket `b` holds the ids in `base + [b << shift, (b + 1) << shift)`.
    shift: u32,
    /// Where each bucket starts in the user column, then the column's
    /// length.
    starts: Vec<u32>,
}

impl UserIndex {
    fn new(users: &[UserId]) -> Self {
        let (Some(first), Some(last)) = (users.first(), users.last()) else {
            return UserIndex::default();
        };
        let buckets = (users.len() / 4).max(1) as u64;
        // The smallest shift that leaves at most `buckets` buckets.
        let shift = u64::BITS - ((last.0 - first.0) / buckets).leading_zeros();
        let mut index = UserIndex { base: first.0, shift, starts: Vec::new() };
        for (at, &user) in users.iter().enumerate() {
            let bucket = index.bucket(user).unwrap_or(0);
            while index.starts.len() <= bucket {
                index.starts.push(at as u32);
            }
        }
        index.starts.push(users.len() as u32);
        index
    }

    /// The bucket `user` falls in, if it is not below every user.
    fn bucket(&self, user: UserId) -> Option<usize> {
        let offset = user.0.checked_sub(self.base)?;
        Some(offset.checked_shr(self.shift).unwrap_or(0) as usize)
    }

    /// The range of the user column that holds `user` if any entry does.
    fn range(&self, user: UserId) -> Option<std::ops::Range<usize>> {
        let bucket = self.bucket(user)?;
        let start = *self.starts.get(bucket)? as usize;
        let end = *self.starts.get(bucket + 1)? as usize;
        Some(start..end)
    }
}

impl BulkPolicy {
    /// Creates an empty bulk policy.
    pub fn new(name: impl Into<String>) -> Self {
        BulkPolicy { name: name.into(), ..BulkPolicy::default() }
    }

    /// Builds a policy from its columns: `users` strictly ascending,
    /// `cloak_ids[i]` the index in `cloaks` of `users[i]`'s cloak.
    ///
    /// The table may hold repeated or unused regions: equal regions are
    /// merged into one id (by hashing the table, never a per-user
    /// region), unused ones dropped, and the ids renumbered in order of
    /// first use.
    ///
    /// # Errors
    /// [`ModelError::InvalidPolicy`] when the columns differ in length,
    /// `users` is not strictly ascending, or an id is outside `cloaks`.
    pub fn from_columns(
        name: impl Into<String>,
        users: Vec<UserId>,
        cloak_ids: Vec<u32>,
        cloaks: Vec<Region>,
    ) -> Result<Self, ModelError> {
        let invalid = |msg: String| Err(ModelError::InvalidPolicy(msg));
        if users.len() != cloak_ids.len() {
            return invalid(format!("{} users but {} cloak ids", users.len(), cloak_ids.len()));
        }
        if let Some(pair) = users.windows(2).find(|pair| pair.first() >= pair.last()) {
            return invalid(format!("users not strictly ascending at {pair:?}"));
        }
        if let Some(id) = cloak_ids.iter().find(|&&id| id as usize >= cloaks.len()) {
            return invalid(format!("cloak id {id} outside a table of {}", cloaks.len()));
        }
        let mut policy =
            BulkPolicy { name: name.into(), users, cloak_ids, cloaks, ..Self::default() };
        policy.normalize();
        Ok(policy)
    }

    /// Policy name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Assigns (or reassigns) `user`'s cloak: a one-entry
    /// [`patch`](Self::patch), which rewrites the columns. Build large
    /// policies with [`from_assignments`](Self::from_assignments) or
    /// [`from_columns`](Self::from_columns) instead.
    pub fn assign(&mut self, user: UserId, region: Region) {
        self.patch(Vec::new(), &BulkPolicy::from_assignments("", vec![(user, region)]));
    }

    /// Removes `user`'s cloak, returning it if one was assigned.
    pub fn remove(&mut self, user: UserId) -> Option<Region> {
        let region = self.cloak_of(user).copied()?;
        self.patch(vec![user], &BulkPolicy::default());
        Some(region)
    }

    /// Builds a policy from one batch of assignments.
    ///
    /// Equivalent to [`BulkPolicy::assign`]-ing every pair in order
    /// (later duplicates win): one stable sort by user, then one pass
    /// that keeps the last pair of each user and numbers cloaks on first
    /// use.
    pub fn from_assignments(
        name: impl Into<String>,
        mut assignments: Vec<(UserId, Region)>,
    ) -> Self {
        // Stable: equal ids keep batch order, so a run's last pair is the
        // one repeated `assign` would leave.
        assignments.sort_by_key(|&(user, _)| user);
        let mut columns = ColumnBuilder::default();
        for run in assignments.chunk_by(|a, b| a.0 == b.0) {
            if let Some(&(user, region)) = run.last() {
                columns.push(user, region);
            }
        }
        columns.finish(name)
    }

    /// Removes every user of `removed`, then assigns every cloak of
    /// `upserts` — what [`remove`](Self::remove) and
    /// [`assign`](Self::assign) one user at a time would leave, in one
    /// merge pass over the sorted user columns: `O(n + m)` plus one hash
    /// of each cloak table. A cloak of `upserts` already in the table
    /// shares its entry; cloaks no user holds any more are dropped.
    ///
    /// This is an incremental commit's one policy update. A
    /// [`merge`](Self::merge) of the kept columns and `upserts` gives the
    /// same policy, but it re-hashes the whole merged table and pairs up
    /// every user: on a 50k-user policy with ~14.5k cloaks and 9.4k
    /// upserts it took 5.2–5.6 ms where this pass takes 2.2–2.3 ms.
    pub fn patch(&mut self, mut removed: Vec<UserId>, upserts: &BulkPolicy) {
        self.index.take();
        removed.sort_unstable();
        // The merged table is this table then `upserts`' own; an upsert
        // cloak already here is aliased to its id and never referenced.
        let offset = self.cloaks.len() as u32;
        let mut alias: Vec<u32> = (0..upserts.cloaks.len() as u32).map(|p| offset + p).collect();
        let index: HashMap<&Region, usize> = upserts.cloaks.iter().zip(0..).collect();
        for (region, id) in self.cloaks.iter().zip(0u32..) {
            if let Some(slot) = index.get(region).and_then(|&p| alias.get_mut(p)) {
                *slot = id;
            }
        }
        let capacity = self.users.len() + upserts.users.len();
        let (mut users, mut ids) = (Vec::with_capacity(capacity), Vec::with_capacity(capacity));
        let mut old = self.users.iter().copied().zip(self.cloak_ids.iter().copied()).peekable();
        let mut gone = removed.into_iter().peekable();
        let mut keep = |user: UserId, id: u32, users: &mut Vec<UserId>, ids: &mut Vec<u32>| {
            while gone.next_if(|&g| g < user).is_some() {}
            if gone.next_if_eq(&user).is_none() {
                users.push(user);
                ids.push(id);
            }
        };
        for (user, p) in upserts.users.iter().copied().zip(upserts.cloak_ids.iter().copied()) {
            while let Some((u, id)) = old.next_if(|&(u, _)| u < user) {
                keep(u, id, &mut users, &mut ids);
            }
            old.next_if(|&(u, _)| u == user); // replaced
            users.push(user);
            ids.push(alias.get(p as usize).copied().unwrap_or(offset));
        }
        for (u, id) in old {
            keep(u, id, &mut users, &mut ids);
        }
        self.users = users;
        self.cloak_ids = ids;
        self.cloaks.extend_from_slice(&upserts.cloaks);
        self.renumber();
    }

    /// Merges `parts` into one policy named `name`. A user in several
    /// parts takes the last part's cloak, as repeated `assign` in part
    /// order would.
    ///
    /// This is [`merge_in_ranges`](Self::merge_in_ranges) with one range,
    /// run on the caller's thread.
    pub fn merge<'a>(
        name: impl Into<String>,
        parts: impl IntoIterator<Item = &'a BulkPolicy>,
    ) -> BulkPolicy {
        Self::merge_in_ranges(name, parts, 1)
    }

    /// [`merge`](Self::merge) with its sort cut into `ranges` user-id
    /// ranges that run at once: the first on the caller, every other on
    /// a scoped thread of its own. The result is the same for every
    /// `ranges`.
    ///
    /// The parts' `(user, cloak id)` pairs, ids offset into the
    /// concatenated cloak tables, are sorted by user with a stable LSD
    /// radix sort: one pass per 11 bits of the span of user ids in a
    /// range (two for a city's 21 bits). Every part's users are sorted,
    /// so cutting the id span at `ranges - 1` evenly spaced ids is one
    /// binary search per part and cut, and a repeated user never
    /// straddles two ranges. Each range sorts its sub-slices of the
    /// parts straight into its own chunk of the merged columns. The
    /// caller allocates those columns and the sort's scratch buffer
    /// before the threads start, so a thread allocates no more than its
    /// digit counters. Dropping the earlier duplicates of a repeated user
    /// and merging regions repeated across parts (by hashing the table)
    /// stay single passes over the result.
    pub fn merge_in_ranges<'a>(
        name: impl Into<String>,
        parts: impl IntoIterator<Item = &'a BulkPolicy>,
        ranges: usize,
    ) -> BulkPolicy {
        let parts: Vec<&BulkPolicy> = parts.into_iter().collect();
        let mut cloaks: Vec<Region> = Vec::new();
        let mut offsets = Vec::with_capacity(parts.len());
        for part in &parts {
            offsets.push(cloaks.len() as u32);
            cloaks.extend_from_slice(&part.cloaks);
        }
        let sorts = range_sorts(&parts, &offsets, ranges.max(1));
        let n: usize = sorts.iter().map(RangeSort::len).sum();
        let buffered = sorts.iter().any(|sort| sort.passes() > 1);
        // The buffer first: freed below the columns, it leaves a hole the
        // next allocations reuse. Allocated after them, it sits on top of
        // the heap, and a `partitioned_paper` step peaked ~36 MB higher.
        let mut buffer = vec![(0u64, 0u32); if buffered { n } else { 0 }];
        let (mut users, mut cloak_ids) = (vec![UserId(0); n], vec![0u32; n]);
        let (mut users_rest, mut ids_rest, mut buffer_rest) =
            (&mut users[..], &mut cloak_ids[..], &mut buffer[..]);
        let mut jobs = Vec::with_capacity(sorts.len());
        for sort in sorts {
            let len = sort.len();
            let u = split_front(&mut users_rest, len);
            let i = split_front(&mut ids_rest, len);
            let b = split_front(&mut buffer_rest, if sort.passes() > 1 { len } else { 0 });
            jobs.push((sort, u, i, b));
        }
        std::thread::scope(|scope| {
            let mut jobs = jobs.into_iter();
            let inline = jobs.next();
            let spawned: Vec<_> =
                jobs.map(|(sort, u, i, b)| scope.spawn(move || sort.run(u, i, b))).collect();
            if let Some((sort, u, i, b)) = inline {
                sort.run(u, i, b);
            }
            for handle in spawned {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        drop(buffer);
        // A repeated user's pairs sit in part order: keep the last id.
        // Everything before the first repeat stays where it is.
        let kept =
            users.windows(2).position(|w| w.first() == w.last()).map_or(users.len(), |at| at + 1);
        let mut len = kept;
        for read in kept..users.len() {
            let (Some(&user), Some(&id)) = (users.get(read), cloak_ids.get(read)) else { break };
            let repeat = len > 0 && users.get(len - 1) == Some(&user);
            let write = if repeat { len - 1 } else { len };
            if let (Some(u), Some(i)) = (users.get_mut(write), cloak_ids.get_mut(write)) {
                (*u, *i) = (user, id);
            }
            len = write + 1;
        }
        users.truncate(len);
        cloak_ids.truncate(len);
        let mut policy =
            BulkPolicy { name: name.into(), users, cloak_ids, cloaks, ..Self::default() };
        policy.normalize();
        policy
    }

    /// Restores the table invariants over valid columns: unused cloaks
    /// dropped, equal regions merged into one id, ids in first-use order.
    /// Hashes the compacted table only, never a per-user region.
    fn normalize(&mut self) {
        self.renumber();
        let mut first: HashMap<Region, u32> = HashMap::with_capacity(self.cloaks.len());
        let alias: Vec<u32> =
            self.cloaks.iter().zip(0u32..).map(|(&r, id)| *first.entry(r).or_insert(id)).collect();
        if first.len() < self.cloaks.len() {
            for id in &mut self.cloak_ids {
                *id = alias.get(*id as usize).copied().unwrap_or(*id);
            }
            self.renumber();
        }
    }

    /// Numbers cloaks in order of first use along `users` and drops the
    /// ones nobody uses: `O(n + t)`, no hashing.
    fn renumber(&mut self) {
        const UNSEEN: u32 = u32::MAX;
        let mut remap = vec![UNSEEN; self.cloaks.len()];
        let mut table = Vec::new();
        for id in &mut self.cloak_ids {
            let Some(slot) = remap.get_mut(*id as usize) else { continue };
            if *slot == UNSEEN {
                *slot = table.len() as u32;
                table.extend(self.cloaks.get(*id as usize).copied());
            }
            *id = *slot;
        }
        self.cloaks = table;
    }

    /// The cloak of `user`, if assigned.
    pub fn cloak_of(&self, user: UserId) -> Option<&Region> {
        self.cloak_entry(user).map(|(_, region)| region)
    }

    /// The cloak id (an index into [`cloaks`](Self::cloaks), naming the
    /// user's cloak group) and the cloak of `user`, if assigned.
    pub fn cloak_entry(&self, user: UserId) -> Option<(u32, &Region)> {
        let id = *self.cloak_ids.get(self.position(user)?)?;
        Some((id, self.cloaks.get(id as usize)?))
    }

    /// Where `user` is in the user column, if assigned.
    fn position(&self, user: UserId) -> Option<usize> {
        let range = self.index.get_or_init(|| UserIndex::new(&self.users)).range(user)?;
        let start = range.start;
        Some(start + self.users.get(range)?.binary_search(&user).ok()?)
    }

    /// The users with a cloak, ascending.
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// Each user's cloak id, parallel to [`users`](Self::users).
    pub fn cloak_ids(&self) -> &[u32] {
        &self.cloak_ids
    }

    /// The cloak table: distinct regions, each some user's cloak,
    /// numbered in order of first use along [`users`](Self::users).
    pub fn cloaks(&self) -> &[Region] {
        &self.cloaks
    }

    /// Number of users with an assigned cloak.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether no user has a cloak.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Iterates `(user, cloak)` assignments in ascending user-id order
    /// (deterministic across runs).
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &Region)> + '_ {
        self.users
            .iter()
            .zip(&self.cloak_ids)
            .filter_map(|(&user, &id)| Some((user, self.cloaks.get(id as usize)?)))
    }

    /// Groups users by their cloak. A policy-aware attacker observing a
    /// request with cloak `ρ` knows the sender lies in `groups()[ρ]`, so
    /// policy-aware sender k-anonymity of a bulk policy is exactly
    /// "every group has at least k members" (Lemma 3 via configurations).
    /// Members are ascending.
    pub fn groups(&self) -> HashMap<Region, Vec<UserId>> {
        self.cloaks.iter().copied().zip(self.group_members()).collect()
    }

    /// The members of every cloak group, ascending, indexed by cloak id.
    pub fn group_members(&self) -> Vec<Vec<UserId>> {
        let mut members: Vec<Vec<UserId>> = vec![Vec::new(); self.cloaks.len()];
        for (&user, &id) in self.users.iter().zip(&self.cloak_ids) {
            if let Some(group) = members.get_mut(id as usize) {
                group.push(user);
            }
        }
        members
    }

    /// The size of every cloak group, indexed by cloak id: one walk over
    /// the id column.
    pub fn group_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.cloaks.len()];
        for &id in &self.cloak_ids {
            if let Some(size) = sizes.get_mut(id as usize) {
                *size += 1;
            }
        }
        sizes
    }

    /// The smallest cloak-group size, or `None` for an empty policy.
    pub fn min_group_size(&self) -> Option<usize> {
        self.group_sizes().into_iter().min()
    }

    /// Whether every assigned cloak contains its user's location and every
    /// user of `db` has a cloak — i.e. the policy is masking and total.
    pub fn is_masking_and_total(&self, db: &LocationDb) -> bool {
        db.iter().all(|(user, point)| self.cloak_of(user).is_some_and(|r| r.contains(&point)))
    }

    /// `Cost(P, D)` (Definition 8): the exact sum of rectangular cloak
    /// areas. Returns `None` if any cloak is non-rectangular (circular
    /// cloak costs are compared via [`BulkPolicy::cost_f64`]).
    pub fn cost_exact(&self) -> Option<Area> {
        let areas: Option<Vec<Area>> =
            self.cloaks.iter().map(|r| r.rect().map(|rect| rect.area())).collect();
        let areas = areas?;
        Some(self.group_sizes().iter().zip(&areas).map(|(&size, &area)| size as Area * area).sum())
    }

    /// `Cost(P, D)` as `f64`, defined for all cloak shapes: summed user by
    /// user in ascending order, so the rounding is that of the per-user
    /// sum.
    pub fn cost_f64(&self) -> f64 {
        let areas: Vec<f64> = self.cloaks.iter().map(Region::area_f64).collect();
        self.cloak_ids.iter().filter_map(|&id| areas.get(id as usize)).sum()
    }

    /// Average cloak area per anonymized user (the paper's Figure 5(a)
    /// metric), or 0 for an empty policy.
    pub fn avg_area_f64(&self) -> f64 {
        if self.users.is_empty() {
            0.0
        } else {
            self.cost_f64() / self.users.len() as f64
        }
    }

    /// Summary statistics for experiment reporting.
    pub fn stats(&self) -> PolicyStats {
        let sizes = self.group_sizes();
        PolicyStats {
            users: self.users.len(),
            groups: sizes.len(),
            min_group: sizes.iter().copied().min().unwrap_or(0),
            max_group: sizes.iter().copied().max().unwrap_or(0),
            cost_exact: self.cost_exact(),
            cost_f64: self.cost_f64(),
            avg_area: self.avg_area_f64(),
        }
    }
}

/// Builds policy columns one assignment at a time, numbering each region
/// on first sight. While users arrive strictly ascending, the columns
/// built are the policy's own.
#[derive(Debug, Default)]
pub(crate) struct ColumnBuilder {
    columns: BulkPolicy,
    ids: HashMap<Region, u32>,
}

impl ColumnBuilder {
    /// Appends `user`'s assignment to `region`.
    pub(crate) fn push(&mut self, user: UserId, region: Region) {
        let columns = &mut self.columns;
        let next = columns.cloaks.len() as u32;
        let id = *self.ids.entry(region).or_insert(next);
        if id == next {
            columns.cloaks.push(region);
        }
        columns.users.push(user);
        columns.cloak_ids.push(id);
    }

    /// The policy the pushes describe, read as `assign` calls in push
    /// order: users out of order or repeated go through
    /// [`BulkPolicy::from_assignments`].
    pub(crate) fn finish(self, name: impl Into<String>) -> BulkPolicy {
        let BulkPolicy { users, cloak_ids, cloaks, .. } = self.columns;
        if users.is_sorted_by(|a, b| a < b) {
            return BulkPolicy {
                name: name.into(),
                users,
                cloak_ids,
                cloaks,
                ..BulkPolicy::default()
            };
        }
        let assignments = users
            .into_iter()
            .zip(cloak_ids)
            .filter_map(|(user, id)| Some((user, *cloaks.get(id as usize)?)))
            .collect();
        BulkPolicy::from_assignments(name, assignments)
    }
}

/// Bits of the user id one pass of [`radix_sort_by_user`] sorts on: its
/// 2,048 counters stay in L1, and the 21-bit id span of a 1.75M-user
/// population takes two passes.
const RADIX_BITS: u32 = 11;

/// One user-id range of a [`BulkPolicy::merge_in_ranges`]: every part's
/// sub-slice of users (and cloak ids) in the range, in part order.
#[derive(Debug)]
struct RangeSort<'a> {
    /// Per part: its users in the range, their cloak ids, and the
    /// part's offset into the merged cloak table.
    sources: Vec<(&'a [UserId], &'a [u32], u32)>,
    /// The smallest and largest user in the range (`(u64::MAX, 0)` when
    /// it is empty).
    min: u64,
    max: u64,
}

impl RangeSort<'_> {
    fn len(&self) -> usize {
        self.sources.iter().map(|(users, _, _)| users.len()).sum()
    }

    /// Radix passes the range's id span takes.
    fn passes(&self) -> u32 {
        let span = self.max.saturating_sub(self.min);
        (u64::BITS - span.leading_zeros()).div_ceil(RADIX_BITS).max(1)
    }

    /// Sorts the range into `users` and `ids` (each [`len`](Self::len)
    /// long), through `buffer` (as long, or empty for one pass).
    fn run(self, users: &mut [UserId], ids: &mut [u32], buffer: &mut [(u64, u32)]) {
        let pairs = || {
            self.sources.iter().flat_map(|&(users, ids, offset)| {
                users.iter().copied().zip(ids.iter().map(move |&id| offset + id))
            })
        };
        radix_sort_by_user(pairs, self.min, self.passes(), users, ids, buffer);
    }
}

/// Cuts the parts' pairs into `ranges` user-id ranges: the span between
/// the smallest and largest user present, cut at `ranges - 1` evenly
/// spaced ids. Every range's users are above every earlier range's, so
/// the ranges' sorted chunks, laid end to end, are the whole sort.
fn range_sorts<'a>(parts: &[&'a BulkPolicy], offsets: &[u32], ranges: usize) -> Vec<RangeSort<'a>> {
    let lo = parts.iter().filter_map(|p| p.users.first()).map(|u| u.0).min().unwrap_or(0);
    let hi = parts.iter().filter_map(|p| p.users.last()).map(|u| u.0).max().unwrap_or(0);
    let width = u128::from(hi.saturating_sub(lo)) + 1;
    // Range r holds the users in [cuts[r], cuts[r + 1]).
    let cuts: Vec<u64> =
        (1..ranges).map(|r| lo + (width * r as u128 / ranges as u128) as u64).collect();
    let mut sorts: Vec<RangeSort<'a>> = (0..ranges)
        .map(|_| RangeSort { sources: Vec::with_capacity(parts.len()), min: u64::MAX, max: 0 })
        .collect();
    for (part, &offset) in parts.iter().zip(offsets) {
        let mut start = 0;
        for (r, sort) in sorts.iter_mut().enumerate() {
            let end = cuts
                .get(r)
                .map_or(part.users.len(), |&cut| part.users.partition_point(|u| u.0 < cut));
            let users = part.users.get(start..end).unwrap_or_default();
            let ids = part.cloak_ids.get(start..end).unwrap_or_default();
            if let (Some(first), Some(last)) = (users.first(), users.last()) {
                sort.min = sort.min.min(first.0);
                sort.max = sort.max.max(last.0);
                sort.sources.push((users, ids, offset));
            }
            start = end;
        }
    }
    sorts
}

/// Splits the first `len` items (at most all) off `rest`.
fn split_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let all = std::mem::take(rest);
    let (front, back) = all.split_at_mut_checked(len.min(all.len())).unwrap_or_default();
    *rest = back;
    front
}

/// Sorts the `(user, cloak id)` pairs `pairs()` yields by user, stably,
/// into `users` and `ids`: one LSD radix pass per [`RADIX_BITS`] of user
/// id above `min`, `passes` of them, so it is exact for any ids and
/// costs two passes on a city's. One read counts every pass's digits;
/// the first pass reads `pairs()` again, and the passes alternate
/// between `buffer` and the columns so that the last one writes the
/// columns. `users` and `ids` hold exactly the pairs' count; `buffer`
/// as many, unless `passes` is 1.
fn radix_sort_by_user<I>(
    pairs: impl Fn() -> I,
    min: u64,
    passes: u32,
    users: &mut [UserId],
    ids: &mut [u32],
    buffer: &mut [(u64, u32)],
) where
    I: Iterator<Item = (UserId, u32)>,
{
    const MASK: u64 = (1 << RADIX_BITS) - 1;
    let digit = move |user: u64, pass: u32| ((user - min) >> (pass * RADIX_BITS) & MASK) as usize;
    let mut starts = vec![[0usize; 1 << RADIX_BITS]; passes as usize];
    for (user, _) in pairs() {
        for (pass, counts) in (0..passes).zip(&mut starts) {
            if let Some(c) = counts.get_mut(digit(user.0, pass)) {
                *c += 1;
            }
        }
    }
    for counts in &mut starts {
        let mut sum = 0;
        for c in counts.iter_mut() {
            (*c, sum) = (sum, sum + *c);
        }
    }
    for (pass, starts) in (0..passes).zip(starts) {
        let at = |user: u64| digit(user, pass);
        let put_columns = |slot: usize, (user, id): (u64, u32)| {
            if let (Some(u), Some(i)) = (users.get_mut(slot), ids.get_mut(slot)) {
                (*u, *i) = (UserId(user), id);
            }
        };
        let put_buffer = |slot: usize, pair| {
            if let Some(s) = buffer.get_mut(slot) {
                *s = pair;
            }
        };
        let first = || pairs().map(|(user, id)| (user.0, id));
        // The last pass, and every second one before it, writes the columns.
        match (pass, (passes - 1 - pass).is_multiple_of(2)) {
            (0, true) => scatter(first(), starts, at, put_columns),
            (0, false) => scatter(first(), starts, at, put_buffer),
            (_, true) => scatter(buffer.iter().copied(), starts, at, put_columns),
            (_, false) => {
                let columns = users.iter().map(|u| u.0).zip(ids.iter().copied());
                scatter(columns, starts, at, put_buffer);
            }
        }
    }
}

/// One counting-sort pass: each pair goes to the next free slot of its
/// digit's bucket, buckets starting at `starts`.
fn scatter(
    pairs: impl Iterator<Item = (u64, u32)>,
    mut starts: [usize; 1 << RADIX_BITS],
    digit: impl Fn(u64) -> usize,
    mut put: impl FnMut(usize, (u64, u32)),
) {
    for pair in pairs {
        if let Some(slot) = starts.get_mut(digit(pair.0)) {
            put(*slot, pair);
            *slot += 1;
        }
    }
}

/// Equal assignments under equal names; whether a lookup has built the
/// index yet does not count.
impl PartialEq for BulkPolicy {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.users == other.users
            && self.cloak_ids == other.cloak_ids
            && self.cloaks == other.cloaks
    }
}

impl Eq for BulkPolicy {}

impl CloakingPolicy for BulkPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn cloak(&self, _db: &LocationDb, user: UserId) -> Option<Region> {
        self.cloak_of(user).copied()
    }
}

/// Summary of a bulk policy, for experiment tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyStats {
    /// Users with an assigned cloak.
    pub users: usize,
    /// Distinct cloak regions in use.
    pub groups: usize,
    /// Smallest cloak group (≥ k ⟺ policy-aware k-anonymous).
    pub min_group: usize,
    /// Largest cloak group.
    pub max_group: usize,
    /// Exact total cost when all cloaks are rectangles.
    pub cost_exact: Option<Area>,
    /// Total cost as f64 (valid for all shapes).
    pub cost_f64: f64,
    /// Average cloak area per user.
    pub avg_area: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestParams;
    use lbs_geom::{Point, Rect};

    fn db() -> LocationDb {
        LocationDb::from_rows([
            (UserId(1), Point::new(1, 1)),
            (UserId(2), Point::new(1, 2)),
            (UserId(3), Point::new(3, 3)),
        ])
        .unwrap()
    }

    fn policy() -> BulkPolicy {
        let mut p = BulkPolicy::new("test");
        let r1: Region = Rect::new(0, 0, 2, 4).into();
        let r2: Region = Rect::new(2, 2, 4, 4).into();
        p.assign(UserId(1), r1);
        p.assign(UserId(2), r1);
        p.assign(UserId(3), r2);
        p
    }

    #[test]
    fn groups_partition_users() {
        let p = policy();
        let groups = p.groups();
        assert_eq!(groups.len(), 2);
        let total: usize = groups.values().map(Vec::len).sum();
        assert_eq!(total, 3);
        assert_eq!(p.min_group_size(), Some(1));
    }

    #[test]
    #[expect(clippy::float_cmp, reason = "20.0 is the exact f64 image of the integer cost 20")]
    fn cost_is_sum_of_areas() {
        let p = policy();
        // Two users in an 8 m² cloak plus one in a 4 m² cloak.
        assert_eq!(p.cost_exact(), Some(8 + 8 + 4));
        assert_eq!(p.cost_f64(), 20.0);
        assert!((p.avg_area_f64() - 20.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn masking_and_totality() {
        let db = db();
        let p = policy();
        assert!(p.is_masking_and_total(&db));

        let mut partial = p.clone();
        partial.assign(UserId(3), Rect::new(0, 0, 1, 1).into());
        assert!(!partial.is_masking_and_total(&db), "cloak misses user 3");

        let mut missing = BulkPolicy::new("missing");
        missing.assign(UserId(1), Rect::new(0, 0, 4, 4).into());
        assert!(!missing.is_masking_and_total(&db), "users 2,3 uncovered");
    }

    #[test]
    fn anonymize_copies_params_and_masks() {
        let db = db();
        let p = policy();
        let sr = ServiceRequest::new(
            UserId(2),
            Point::new(1, 2),
            RequestParams::from_pairs([("poi", "rest")]),
        );
        let ar = p.anonymize(&db, &sr, RequestId(167)).unwrap();
        assert!(ar.masks(&sr));
        assert_eq!(ar.rid, RequestId(167));

        let invalid = ServiceRequest::new(UserId(2), Point::new(9, 9), sr.params.clone());
        assert!(p.anonymize(&db, &invalid, RequestId(1)).is_none());
    }

    /// The batch a sequence of `assign` calls would see: equal ids in
    /// `batch` order, so the last occurrence is the one that sticks.
    fn assigned_one_by_one(batch: &[(UserId, Region)]) -> BulkPolicy {
        let mut p = BulkPolicy::new("batch");
        for &(user, region) in batch {
            p.assign(user, region);
        }
        p
    }

    #[test]
    fn merge_sorts_any_id_span_and_the_later_part_wins() {
        // A splitmix64 stream: the crate takes no randomness dependency.
        let mut state = 0x3AD1u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Spans of 0, 11 (one pass), 21, 40 and 64 bits.
        for (base, span) in
            [(7u64, 0u64), (0, 1 << 11), (1 << 40, 1 << 21), (3, 1 << 40), (0, u64::MAX)]
        {
            let parts: Vec<Vec<(UserId, Region)>> = (0..5)
                .map(|_| {
                    (0..next() % 300)
                        .map(|_| {
                            let offset =
                                if span == u64::MAX { next() } else { next() % (span + 1) };
                            let r = (next() % 40) as i64;
                            (UserId(base + offset), Region::Rect(Rect::new(r, r, r + 1, r + 2)))
                        })
                        .collect()
                })
                .collect();
            let policies: Vec<BulkPolicy> =
                parts.iter().map(|p| BulkPolicy::from_assignments("part", p.clone())).collect();
            // A part repeats a user of an earlier one: the later cloak wins.
            let want = BulkPolicy::from_assignments(
                "merged",
                policies.iter().flat_map(|p| p.iter().map(|(u, r)| (u, *r))).collect(),
            );
            assert_eq!(BulkPolicy::merge("merged", &policies), want, "span {span}");
        }
    }

    #[test]
    fn from_assignments_keeps_the_last_duplicate() {
        let r = |x: i64| -> Region { Rect::new(x, 0, x + 1, 1).into() };
        let batch =
            vec![(UserId(5), r(0)), (UserId(1), r(1)), (UserId(5), r(2)), (UserId(3), r(3))];
        let bulk = BulkPolicy::from_assignments("batch", batch.clone());
        assert_eq!(bulk.cloak_of(UserId(5)), Some(&r(2)), "the later duplicate wins");
        assert_eq!(bulk.len(), 3);
        assert!(bulk.iter().eq(assigned_one_by_one(&batch).iter()));
        let owned: Vec<(UserId, Region)> = bulk.iter().map(|(u, r)| (u, *r)).collect();
        assert_eq!(owned, vec![(UserId(1), r(1)), (UserId(3), r(3)), (UserId(5), r(2))]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Shuffled batches over a small id space (so ids repeat) build
        /// the same policy as repeated `assign` in batch order.
        #[test]
        fn from_assignments_matches_repeated_assign(
            raw in proptest::collection::vec((0u64..24, 0i64..8), 0..64)
        ) {
            let batch: Vec<(UserId, Region)> = raw
                .iter()
                .map(|&(user, x)| (UserId(user), Rect::new(x, 0, x + 1, 1).into()))
                .collect();
            let bulk = BulkPolicy::from_assignments("batch", batch.clone());
            let reference = assigned_one_by_one(&batch);
            proptest::prop_assert_eq!(bulk.len(), reference.len());
            proptest::prop_assert!(bulk.iter().eq(reference.iter()));
        }

        /// Lookups through the bucket index find every assigned user and
        /// no other, on dense ids, ids spread over all of `u64` and ids
        /// at both ends of it.
        #[test]
        fn indexed_lookups_find_exactly_the_assigned_users(
            raw in proptest::collection::vec((0u8..3, proptest::prelude::any::<u64>()), 0..200)
        ) {
            let ids: std::collections::BTreeSet<u64> = raw
                .iter()
                .map(|&(kind, v)| match kind {
                    0 => v % 300,
                    1 => v,
                    _ => u64::MAX - v % 300,
                })
                .collect();
            let r: Region = Rect::new(0, 0, 1, 1).into();
            let bulk = BulkPolicy::from_assignments(
                "ids",
                ids.iter().map(|&u| (UserId(u), r)).collect(),
            );
            for &u in &ids {
                for probe in [u.wrapping_sub(1), u, u.wrapping_add(1)] {
                    let found = bulk.cloak_of(UserId(probe)).is_some();
                    proptest::prop_assert_eq!(found, ids.contains(&probe), "id {}", probe);
                }
            }
            proptest::prop_assert!(bulk.cloak_of(UserId(0)).is_some() == ids.contains(&0));
        }
    }

    #[test]
    fn materialize_covers_all_users() {
        let db = db();
        let p = policy();
        let bulk = p.materialize(&db);
        assert_eq!(bulk.len(), 3);
        assert_eq!(bulk.stats().groups, 2);
    }
}
