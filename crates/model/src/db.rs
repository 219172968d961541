//! The location database `D = {userid, locx, locy}` (Section II-A).

use crate::ModelError;
use lbs_geom::{Point, Rect, Region};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Opaque identifier of a mobile user (the `userid` attribute).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct UserId(pub u64);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl From<u64> for UserId {
    fn from(v: u64) -> Self {
        UserId(v)
    }
}

/// A single user's movement between two consecutive snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Move {
    /// The moving user.
    pub user: UserId,
    /// The user's location in the next snapshot.
    pub to: Point,
}

/// One churn event between snapshots: besides pure movement, a production
/// MPC feed also reports devices appearing (powering on, entering the
/// jurisdiction) and disappearing. This is the record type the service
/// runtime writes to its write-ahead log (serialized by the binary codec
/// in `model::update_codec`, not serde).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserUpdate {
    /// An existing user moved to a new location.
    Move(Move),
    /// A new user appeared at a location.
    Insert {
        /// The appearing user.
        user: UserId,
        /// Where the user appeared.
        at: Point,
    },
    /// A user disappeared from the snapshot.
    Delete {
        /// The disappearing user.
        user: UserId,
    },
}

impl UserUpdate {
    /// The user this update concerns.
    pub fn user(&self) -> UserId {
        match *self {
            UserUpdate::Move(m) => m.user,
            UserUpdate::Insert { user, .. } | UserUpdate::Delete { user } => user,
        }
    }
}

/// One snapshot of the location database: the set of all device locations
/// the MPC would report at one instant.
///
/// The paper assumes the database is refreshed periodically (every ~30 s);
/// a sequence of snapshots is modeled by applying [`LocationDb::apply_moves`]
/// between instants. User ids are unique within a snapshot.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LocationDb {
    rows: Vec<(UserId, Point)>,
    #[serde(skip)]
    index: HashMap<UserId, usize>,
}

impl<'de> Deserialize<'de> for LocationDb {
    fn deserialize<D>(deserializer: D) -> Result<Self, D::Error>
    where
        D: serde::Deserializer<'de>,
    {
        #[derive(Deserialize)]
        struct Raw {
            rows: Vec<(UserId, Point)>,
        }
        let raw = Raw::deserialize(deserializer)?;
        let mut db = LocationDb { rows: raw.rows, index: HashMap::new() };
        db.rebuild_index().map_err(serde::de::Error::custom)?;
        Ok(db)
    }
}

impl LocationDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a database from `(user, point)` rows.
    ///
    /// # Errors
    /// Returns [`ModelError::DuplicateUser`] if a user id repeats.
    pub fn from_rows<I>(rows: I) -> Result<Self, ModelError>
    where
        I: IntoIterator<Item = (UserId, Point)>,
    {
        let mut db = LocationDb::new();
        for (user, point) in rows {
            db.insert(user, point)?;
        }
        Ok(db)
    }

    /// Inserts a user at `point`.
    ///
    /// # Errors
    /// Returns [`ModelError::DuplicateUser`] if the user is already present.
    pub fn insert(&mut self, user: UserId, point: Point) -> Result<(), ModelError> {
        use std::collections::hash_map::Entry;
        match self.index.entry(user) {
            Entry::Occupied(_) => Err(ModelError::DuplicateUser(user)),
            Entry::Vacant(slot) => {
                slot.insert(self.rows.len());
                self.rows.push((user, point));
                Ok(())
            }
        }
    }

    /// Number of users in the snapshot (`|D|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the snapshot holds no users.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Location of `user`, if present.
    #[inline]
    pub fn location(&self, user: UserId) -> Option<Point> {
        self.index.get(&user).and_then(|&i| self.rows.get(i)).map(|row| row.1)
    }

    /// Whether the snapshot contains `user`.
    #[inline]
    pub fn contains(&self, user: UserId) -> bool {
        self.index.contains_key(&user)
    }

    /// Iterates all `(user, point)` rows in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, Point)> + '_ {
        self.rows.iter().copied()
    }

    /// All user ids, in insertion order.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.rows.iter().map(|&(u, _)| u)
    }

    /// Users located inside `region` — the candidate-sender set a
    /// policy-unaware attacker can reconstruct from a cloak (Section III).
    pub fn users_in(&self, region: &Region) -> Vec<UserId> {
        self.rows.iter().filter(|(_, p)| region.contains(p)).map(|&(u, _)| u).collect()
    }

    /// Number of users located inside `rect` — `d(m)` of Definition 7 when
    /// `rect` is a quad-tree quadrant.
    pub fn count_in(&self, rect: &Rect) -> usize {
        self.rows.iter().filter(|(_, p)| rect.contains(p)).count()
    }

    /// Produces the next snapshot by applying `moves`. Users not mentioned
    /// keep their location.
    ///
    /// # Errors
    /// Returns [`ModelError::UnknownUser`] if a move references an absent
    /// user; the database is left unchanged in that case.
    pub fn apply_moves(&mut self, moves: &[Move]) -> Result<(), ModelError> {
        for m in moves {
            if !self.index.contains_key(&m.user) {
                return Err(ModelError::UnknownUser(m.user));
            }
        }
        for m in moves {
            let i = self.index[&m.user];
            self.rows[i].1 = m.to;
        }
        Ok(())
    }

    /// Removes `user`, returning their last location.
    ///
    /// # Errors
    /// Returns [`ModelError::UnknownUser`] if the user is absent; the
    /// database is left unchanged in that case.
    pub fn remove(&mut self, user: UserId) -> Result<Point, ModelError> {
        let i = self.index.remove(&user).ok_or(ModelError::UnknownUser(user))?;
        let (_, point) = self.rows.swap_remove(i);
        if let Some(&(moved, _)) = self.rows.get(i) {
            self.index.insert(moved, i);
        }
        Ok(point)
    }

    /// Checks that `updates` would apply cleanly, **in order**, without
    /// mutating anything. A batch may insert a user and then move it, or
    /// delete and re-insert; validity is judged against the membership
    /// state the preceding updates of the batch would leave behind.
    ///
    /// # Errors
    /// [`ModelError::UnknownUser`] for a move/delete of an absent user,
    /// [`ModelError::DuplicateUser`] for an insert of a present one.
    pub fn validate_updates(&self, updates: &[UserUpdate]) -> Result<(), ModelError> {
        let mut overlay: HashMap<UserId, bool> = HashMap::new();
        let present = |db: &Self, u: UserId, overlay: &HashMap<UserId, bool>| {
            overlay.get(&u).copied().unwrap_or_else(|| db.contains(u))
        };
        for up in updates {
            match *up {
                UserUpdate::Move(m) => {
                    if !present(self, m.user, &overlay) {
                        return Err(ModelError::UnknownUser(m.user));
                    }
                }
                UserUpdate::Insert { user, .. } => {
                    if present(self, user, &overlay) {
                        return Err(ModelError::DuplicateUser(user));
                    }
                    overlay.insert(user, true);
                }
                UserUpdate::Delete { user } => {
                    if !present(self, user, &overlay) {
                        return Err(ModelError::UnknownUser(user));
                    }
                    overlay.insert(user, false);
                }
            }
        }
        Ok(())
    }

    /// Applies a churn batch (moves, inserts, deletes) in order.
    /// Validation is all-or-nothing via [`LocationDb::validate_updates`]:
    /// on error nothing is applied.
    ///
    /// # Errors
    /// Propagates [`LocationDb::validate_updates`] failures.
    pub fn apply_updates(&mut self, updates: &[UserUpdate]) -> Result<(), ModelError> {
        self.validate_updates(updates)?;
        for up in updates {
            match *up {
                UserUpdate::Move(m) => {
                    // Validated above; the entry is present.
                    if let Some(&i) = self.index.get(&m.user) {
                        self.rows[i].1 = m.to;
                    }
                }
                UserUpdate::Insert { user, at } => {
                    self.insert(user, at)?;
                }
                UserUpdate::Delete { user } => {
                    self.remove(user)?;
                }
            }
        }
        Ok(())
    }

    /// The axis-aligned bounding rectangle of all locations, or `None` when
    /// empty. Useful for choosing a map that covers a generated workload.
    pub fn bounding_rect(&self) -> Option<Rect> {
        let (first, rest) = self.rows.split_first()?;
        let mut r = (first.1.x, first.1.y, first.1.x, first.1.y);
        for (_, p) in rest {
            r.0 = r.0.min(p.x);
            r.1 = r.1.min(p.y);
            r.2 = r.2.max(p.x);
            r.3 = r.3.max(p.y);
        }
        // +1 because rects are half-open and must contain the max point.
        Some(Rect::new(r.0, r.1, r.2 + 1, r.3 + 1))
    }

    /// Rebuilds the user index; must be called after deserialization.
    pub(crate) fn rebuild_index(&mut self) -> Result<(), ModelError> {
        self.index.clear();
        self.index.reserve(self.rows.len());
        for (i, &(u, _)) in self.rows.iter().enumerate() {
            if self.index.insert(u, i).is_some() {
                return Err(ModelError::DuplicateUser(u));
            }
        }
        Ok(())
    }
}

/// Incremental builder assigning sequential user ids, convenient for
/// workload generators.
#[derive(Debug, Default)]
pub struct LocationDbBuilder {
    db: LocationDb,
    next_id: u64,
}

impl LocationDbBuilder {
    /// Creates a builder whose first user will be `u0`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a user at `point`, returning the assigned id.
    pub fn add(&mut self, point: Point) -> UserId {
        let user = UserId(self.next_id);
        self.next_id += 1;
        #[expect(
            clippy::expect_used,
            reason = "next_id increments monotonically, so each builder id is fresh and insert cannot collide"
        )]
        self.db.insert(user, point).expect("builder ids are sequential, cannot collide");
        user
    }

    /// Finishes the build.
    pub fn build(self) -> LocationDb {
        self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db3() -> LocationDb {
        LocationDb::from_rows([
            (UserId(1), Point::new(0, 0)),
            (UserId(2), Point::new(5, 5)),
            (UserId(3), Point::new(9, 1)),
        ])
        .unwrap()
    }

    #[test]
    fn duplicate_user_rejected() {
        let err =
            LocationDb::from_rows([(UserId(1), Point::new(0, 0)), (UserId(1), Point::new(1, 1))])
                .unwrap_err();
        assert_eq!(err, ModelError::DuplicateUser(UserId(1)));
    }

    #[test]
    fn lookup_and_counts() {
        let db = db3();
        assert_eq!(db.len(), 3);
        assert_eq!(db.location(UserId(2)), Some(Point::new(5, 5)));
        assert_eq!(db.location(UserId(9)), None);
        assert_eq!(db.count_in(&Rect::new(0, 0, 6, 6)), 2);
        let inside = db.users_in(&Rect::new(0, 0, 10, 10).into());
        assert_eq!(inside, vec![UserId(1), UserId(2), UserId(3)]);
    }

    #[test]
    fn moves_update_locations() {
        let mut db = db3();
        db.apply_moves(&[Move { user: UserId(2), to: Point::new(7, 7) }]).unwrap();
        assert_eq!(db.location(UserId(2)), Some(Point::new(7, 7)));
    }

    #[test]
    fn moves_are_atomic_on_error() {
        let mut db = db3();
        let moves = [
            Move { user: UserId(1), to: Point::new(8, 8) },
            Move { user: UserId(42), to: Point::new(0, 0) },
        ];
        assert_eq!(db.apply_moves(&moves), Err(ModelError::UnknownUser(UserId(42))));
        assert_eq!(db.location(UserId(1)), Some(Point::new(0, 0)), "no partial application");
    }

    #[test]
    fn remove_keeps_index_consistent() {
        let mut db = db3();
        assert_eq!(db.remove(UserId(1)), Ok(Point::new(0, 0)));
        assert_eq!(db.len(), 2);
        assert!(!db.contains(UserId(1)));
        // The swap-removed row (user 3) must still be reachable.
        assert_eq!(db.location(UserId(3)), Some(Point::new(9, 1)));
        assert_eq!(db.remove(UserId(1)), Err(ModelError::UnknownUser(UserId(1))));
    }

    #[test]
    fn update_batches_apply_in_order() {
        let mut db = db3();
        let updates = [
            UserUpdate::Delete { user: UserId(2) },
            UserUpdate::Insert { user: UserId(2), at: Point::new(4, 4) },
            UserUpdate::Move(Move { user: UserId(2), to: Point::new(6, 6) }),
            UserUpdate::Insert { user: UserId(7), at: Point::new(2, 2) },
        ];
        db.apply_updates(&updates).unwrap();
        assert_eq!(db.len(), 4);
        assert_eq!(db.location(UserId(2)), Some(Point::new(6, 6)));
        assert_eq!(db.location(UserId(7)), Some(Point::new(2, 2)));
        assert_eq!(updates[0].user(), UserId(2));
    }

    #[test]
    fn update_batches_are_atomic_on_error() {
        let mut db = db3();
        let bad = [
            UserUpdate::Insert { user: UserId(9), at: Point::new(1, 1) },
            UserUpdate::Move(Move { user: UserId(42), to: Point::new(0, 0) }),
        ];
        assert_eq!(db.apply_updates(&bad), Err(ModelError::UnknownUser(UserId(42))));
        assert!(!db.contains(UserId(9)), "no partial application");
        // Duplicate insert against batch-local state is caught too.
        let dup = [
            UserUpdate::Insert { user: UserId(9), at: Point::new(1, 1) },
            UserUpdate::Insert { user: UserId(9), at: Point::new(2, 2) },
        ];
        assert_eq!(db.apply_updates(&dup), Err(ModelError::DuplicateUser(UserId(9))));
        assert!(!db.contains(UserId(9)));
    }

    #[test]
    fn bounding_rect_covers_all_points() {
        let db = db3();
        let r = db.bounding_rect().unwrap();
        for (_, p) in db.iter() {
            assert!(r.contains(&p));
        }
        assert!(LocationDb::new().bounding_rect().is_none());
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = LocationDbBuilder::new();
        let a = b.add(Point::new(0, 0));
        let c = b.add(Point::new(1, 1));
        assert_eq!((a, c), (UserId(0), UserId(1)));
        assert_eq!(b.build().len(), 2);
    }
}
