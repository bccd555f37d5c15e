//! Node specifications, resource requests, and slot allocations.
//!
//! The paper's testbed is a single Amarel node: 28 CPU cores, 4 Nvidia
//! Quadro M6000 GPUs, 128 GB RAM. [`NodeSpec::amarel`] reproduces it; other
//! shapes are available for scaling studies.

use impress_json::json_struct;
use std::fmt;

/// The shape of a compute node the pilot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    /// Number of CPU cores.
    pub cores: u32,
    /// Number of GPUs.
    pub gpus: u32,
    /// RAM in gigabytes (bookkeeping only; tasks do not reserve memory).
    pub ram_gb: u32,
}

impl NodeSpec {
    /// The paper's Rutgers Amarel node: 28 cores, 4 × Quadro M6000, 128 GB.
    pub fn amarel() -> NodeSpec {
        NodeSpec {
            cores: 28,
            gpus: 4,
            ram_gb: 128,
        }
    }

    /// An arbitrary node shape.
    pub fn new(cores: u32, gpus: u32, ram_gb: u32) -> NodeSpec {
        assert!(cores > 0, "a node needs at least one core");
        NodeSpec {
            cores,
            gpus,
            ram_gb,
        }
    }
}

impl fmt::Display for NodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cores / {} GPUs / {} GB",
            self.cores, self.gpus, self.ram_gb
        )
    }
}

/// A homogeneous multi-node allocation the pilot holds (the paper's future
/// "scalable platform": one pilot spanning several nodes). Tasks never span
/// nodes — like RP, placement is per-node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    /// Shape of each node.
    pub node: NodeSpec,
    /// Number of identical nodes.
    pub count: u32,
}

impl ClusterSpec {
    /// `count` identical nodes.
    pub fn homogeneous(node: NodeSpec, count: u32) -> ClusterSpec {
        assert!(count > 0, "a cluster needs at least one node");
        ClusterSpec { node, count }
    }
}

impl fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} × [{}]", self.count, self.node)
    }
}

/// Resources one task asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceRequest {
    /// CPU cores required.
    pub cores: u32,
    /// GPUs required.
    pub gpus: u32,
}
json_struct!(ResourceRequest { cores, gpus });

impl ResourceRequest {
    /// A CPU-only request.
    pub fn cores(n: u32) -> ResourceRequest {
        ResourceRequest { cores: n, gpus: 0 }
    }

    /// A request for cores plus GPUs.
    pub fn with_gpus(cores: u32, gpus: u32) -> ResourceRequest {
        ResourceRequest { cores, gpus }
    }

    /// Whether this request can ever fit on `node`.
    pub(crate) fn fits_node(&self, node: &NodeSpec) -> bool {
        self.cores <= node.cores && self.gpus <= node.gpus
    }
}

impl fmt::Display for ResourceRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.gpus > 0 {
            write!(f, "{}c+{}g", self.cores, self.gpus)
        } else {
            write!(f, "{}c", self.cores)
        }
    }
}

/// Slots granted to a task: a node and how many of its cores and GPUs.
/// Placement needs only whether a shape fits a node, so a grant names no
/// device; the node's free counters are the only record of what it holds.
/// Not `Copy`: releasing a grant consumes it, so a double release does not
/// compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Node index within the pilot's cluster (0 on a single-node pilot).
    pub node: u32,
    /// Cores granted.
    pub cores: u32,
    /// GPUs granted.
    pub gpus: u32,
}

impl Allocation {
    /// Whether this allocation satisfies `request`.
    #[cfg(test)]
    pub(crate) fn satisfies(&self, request: &ResourceRequest) -> bool {
        self.cores == request.cores && self.gpus == request.gpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amarel_matches_paper() {
        let n = NodeSpec::amarel();
        assert_eq!(n.cores, 28);
        assert_eq!(n.gpus, 4);
        assert_eq!(n.ram_gb, 128);
        assert_eq!(n.to_string(), "28 cores / 4 GPUs / 128 GB");
    }

    #[test]
    fn requests_fit_check() {
        let n = NodeSpec::amarel();
        assert!(ResourceRequest::cores(28).fits_node(&n));
        assert!(!ResourceRequest::cores(29).fits_node(&n));
        assert!(ResourceRequest::with_gpus(2, 4).fits_node(&n));
        assert!(!ResourceRequest::with_gpus(2, 5).fits_node(&n));
    }

    #[test]
    fn allocation_satisfaction() {
        let alloc = Allocation {
            node: 0,
            cores: 2,
            gpus: 1,
        };
        assert!(alloc.satisfies(&ResourceRequest::with_gpus(2, 1)));
        assert!(!alloc.satisfies(&ResourceRequest::with_gpus(2, 0)));
        assert!(!alloc.satisfies(&ResourceRequest::cores(3)));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_node_rejected() {
        NodeSpec::new(0, 1, 1);
    }

    #[test]
    fn request_display_forms() {
        assert_eq!(ResourceRequest::cores(6).to_string(), "6c");
        assert_eq!(ResourceRequest::with_gpus(2, 1).to_string(), "2c+1g");
    }
}
