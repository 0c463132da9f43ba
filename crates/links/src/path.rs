//! Path-level metrics.
//!
//! The paper's rule (Sec. IV-A.1): *"The lifetime of the routing path is the
//! minimum lifetime of the all links involved in the routing path."* For
//! probability metrics, the reliability of a path is the product of the
//! per-link reliabilities (links fail independently).

/// Aggregated metrics of a candidate routing path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PathMetrics {
    /// Number of hops (links) in the path.
    pub hops: usize,
    /// Predicted path lifetime: the minimum of the link lifetimes, seconds.
    pub lifetime_s: f64,
    /// Path reliability: the product of the link reliabilities.
    pub reliability: f64,
}

impl PathMetrics {
    /// Builds path metrics from per-link lifetimes and reliabilities.
    ///
    /// Either slice may be empty; an empty path has zero hops, infinite
    /// lifetime and reliability 1 (the degenerate "already at destination"
    /// path).
    #[must_use]
    pub fn from_links(link_lifetimes_s: &[f64], link_reliabilities: &[f64]) -> Self {
        PathMetrics {
            hops: link_lifetimes_s.len().max(link_reliabilities.len()),
            lifetime_s: path_lifetime(link_lifetimes_s),
            reliability: path_reliability(link_reliabilities),
        }
    }

    /// Whether this path dominates `other`: at least as good on both lifetime
    /// and reliability with no more hops.
    #[must_use]
    pub fn dominates(&self, other: &PathMetrics) -> bool {
        self.lifetime_s >= other.lifetime_s
            && self.reliability >= other.reliability
            && self.hops <= other.hops
    }
}

/// Path lifetime: the minimum of the link lifetimes (infinite for an empty
/// path). Negative inputs are treated as zero.
#[must_use]
pub fn path_lifetime(link_lifetimes_s: &[f64]) -> f64 {
    link_lifetimes_s
        .iter()
        .map(|&l| l.max(0.0))
        .fold(f64::INFINITY, f64::min)
}

/// Path reliability: the product of per-link reliabilities, each clamped to
/// `[0, 1]`. An empty path has reliability 1.
#[must_use]
pub fn path_reliability(link_reliabilities: &[f64]) -> f64 {
    link_reliabilities
        .iter()
        .map(|&p| p.clamp(0.0, 1.0))
        .product()
}

/// Selects the index of the best path among candidates, ranked primarily by
/// lifetime and secondarily by reliability (ties broken towards fewer hops).
/// Returns `None` for an empty candidate list.
#[must_use]
pub fn select_most_stable(candidates: &[PathMetrics]) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    let mut best = 0;
    for (i, c) in candidates.iter().enumerate().skip(1) {
        let b = &candidates[best];
        let better = match c.lifetime_s.partial_cmp(&b.lifetime_s) {
            Some(std::cmp::Ordering::Greater) => true,
            Some(std::cmp::Ordering::Less) => false,
            _ => match c.reliability.partial_cmp(&b.reliability) {
                Some(std::cmp::Ordering::Greater) => true,
                Some(std::cmp::Ordering::Less) => false,
                _ => c.hops < b.hops,
            },
        };
        if better {
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_lifetime_is_minimum() {
        assert_eq!(path_lifetime(&[30.0, 12.0, 55.0]), 12.0);
        assert_eq!(path_lifetime(&[]), f64::INFINITY);
        assert_eq!(path_lifetime(&[5.0, -3.0]), 0.0);
    }

    #[test]
    fn path_reliability_is_product() {
        assert!((path_reliability(&[0.9, 0.8, 0.5]) - 0.36).abs() < 1e-12);
        assert_eq!(path_reliability(&[]), 1.0);
        assert_eq!(path_reliability(&[1.5, 0.5]), 0.5, "values clamp to [0,1]");
        assert_eq!(path_reliability(&[0.9, -0.1]), 0.0);
    }

    #[test]
    fn longer_paths_are_less_reliable() {
        let short = path_reliability(&[0.95; 3]);
        let long = path_reliability(&[0.95; 10]);
        assert!(short > long);
    }

    #[test]
    fn metrics_from_links() {
        let m = PathMetrics::from_links(&[30.0, 12.0], &[0.9, 0.9]);
        assert_eq!(m.hops, 2);
        assert_eq!(m.lifetime_s, 12.0);
        assert!((m.reliability - 0.81).abs() < 1e-12);
    }

    #[test]
    fn domination() {
        let a = PathMetrics {
            hops: 3,
            lifetime_s: 40.0,
            reliability: 0.9,
        };
        let b = PathMetrics {
            hops: 4,
            lifetime_s: 30.0,
            reliability: 0.8,
        };
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.dominates(&a));
    }

    #[test]
    fn most_stable_selection() {
        let candidates = vec![
            PathMetrics {
                hops: 3,
                lifetime_s: 20.0,
                reliability: 0.9,
            },
            PathMetrics {
                hops: 5,
                lifetime_s: 45.0,
                reliability: 0.7,
            },
            PathMetrics {
                hops: 2,
                lifetime_s: 45.0,
                reliability: 0.8,
            },
        ];
        assert_eq!(select_most_stable(&candidates), Some(2));
        assert_eq!(select_most_stable(&[]), None);
        // Tie on lifetime and reliability: fewer hops wins.
        let tie = vec![
            PathMetrics {
                hops: 4,
                lifetime_s: 10.0,
                reliability: 0.5,
            },
            PathMetrics {
                hops: 2,
                lifetime_s: 10.0,
                reliability: 0.5,
            },
        ];
        assert_eq!(select_most_stable(&tie), Some(1));
    }
}
