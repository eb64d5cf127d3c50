//! Sites and entity partitioning.

use pr_model::EntityId;
use std::fmt;

/// Identifier of a site in the distributed system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u16);

impl SiteId {
    /// Site 0 doubles as the coordinator under global detection.
    pub const COORDINATOR: SiteId = SiteId(0);

    /// Creates a site id.
    pub const fn new(raw: u16) -> Self {
        SiteId(raw)
    }

    /// Raw index.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// How entities are assigned to sites.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Partition {
    /// Entity `e` lives at site `e mod n`.
    RoundRobin {
        /// Number of sites.
        sites: u16,
    },
    /// Entities are split into `n` contiguous ranges of `span` each:
    /// entity `e` lives at site `min(e / span, sites - 1)`.
    Range {
        /// Number of sites.
        sites: u16,
        /// Entities per site.
        span: u32,
    },
}

impl Partition {
    /// Number of sites.
    pub fn sites(self) -> u16 {
        match self {
            Partition::RoundRobin { sites } | Partition::Range { sites, .. } => sites,
        }
    }

    /// The home site of an entity.
    pub fn site_of(self, entity: EntityId) -> SiteId {
        match self {
            Partition::RoundRobin { sites } => SiteId((entity.raw() % u32::from(sites)) as u16),
            Partition::Range { sites, span } => {
                let idx = (entity.raw() / span.max(1)).min(u32::from(sites) - 1);
                SiteId(idx as u16)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId::new(i)
    }

    #[test]
    fn round_robin_cycles_sites() {
        let p = Partition::RoundRobin { sites: 3 };
        assert_eq!(p.site_of(e(0)), SiteId(0));
        assert_eq!(p.site_of(e(1)), SiteId(1));
        assert_eq!(p.site_of(e(2)), SiteId(2));
        assert_eq!(p.site_of(e(3)), SiteId(0));
        assert_eq!(p.sites(), 3);
    }

    #[test]
    fn range_partition_clamps_overflow() {
        let p = Partition::Range { sites: 2, span: 4 };
        assert_eq!(p.site_of(e(0)), SiteId(0));
        assert_eq!(p.site_of(e(3)), SiteId(0));
        assert_eq!(p.site_of(e(4)), SiteId(1));
        assert_eq!(p.site_of(e(100)), SiteId(1), "overflow clamps to last site");
    }

    #[test]
    fn site_display() {
        assert_eq!(SiteId::new(2).to_string(), "site2");
        assert_eq!(format!("{:?}", SiteId::COORDINATOR), "site0");
    }
}
