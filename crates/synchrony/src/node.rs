//! Process–time nodes `⟨i, m⟩`.

use std::fmt;

use crate::{ProcessId, Time};

/// A process–time node `⟨i, m⟩`: process `i` at time `m`.
///
/// Nodes are the vertices of the communication graph `G_α`; a protocol's
/// knowledge analysis classifies nodes as *seen*, *guaranteed crashed* or
/// *hidden* relative to an observer node.
///
/// ```
/// use synchrony::{Node, Time};
///
/// let node = Node::new(2, Time::new(1));
/// assert_eq!(node.to_string(), "⟨p2, 1⟩");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Node {
    /// The process component of the node.
    pub process: ProcessId,
    /// The time component of the node.
    pub time: Time,
}

impl Node {
    /// Creates the node `⟨process, time⟩`.
    pub fn new(process: impl Into<ProcessId>, time: Time) -> Self {
        Node { process: process.into(), time }
    }

    /// Returns the node for the same process one time step later.
    pub fn succ(self) -> Node {
        Node { process: self.process, time: self.time.succ() }
    }

    /// Returns the node for the same process one time step earlier, or `None`
    /// at time zero.
    pub fn pred(self) -> Option<Node> {
        self.time.pred().map(|t| Node { process: self.process, time: t })
    }

    /// Returns the initial node `⟨process, 0⟩` of the same process.
    pub fn initial(self) -> Node {
        Node { process: self.process, time: Time::ZERO }
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.process, self.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succ_and_pred_move_in_time_only() {
        let node = Node::new(3, Time::new(2));
        assert_eq!(node.succ(), Node::new(3, Time::new(3)));
        assert_eq!(node.pred(), Some(Node::new(3, Time::new(1))));
        assert_eq!(Node::new(3, Time::ZERO).pred(), None);
        assert_eq!(node.initial(), Node::new(3, Time::ZERO));
    }

    #[test]
    fn ordering_is_by_process_then_time() {
        let a = Node::new(1, Time::new(5));
        let b = Node::new(2, Time::new(0));
        assert!(a < b);
    }

    #[test]
    fn display_uses_angle_brackets() {
        assert_eq!(Node::new(0, Time::new(4)).to_string(), "⟨p0, 4⟩");
    }
}
