//! Strided multi-group deployment shapes, shared by the simulator's
//! frontier tests (`tests/frontier.rs`) and the real-time scale test
//! (`tests/runtime_scale.rs`).
//!
//! A "strided" deployment spreads `groups` groups of `members` workstations
//! each over `nodes` workstations as evenly as possible, using a stride
//! coprime with `nodes` so `g ↦ (g + j·stride) mod nodes` is a bijection
//! per `j` — every workstation carries the same load. Group `g` (0-based)
//! is addressed as [`GroupId`]`(g + 1)` throughout.

use sle_core::GroupId;
use sle_sim::NodeId;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// `groups` groups of `members` workstations each, strided over `nodes`
/// workstations: `result[g]` lists the member workstations of group
/// `GroupId(g + 1)`.
///
/// ```
/// use sle_harness::deploy::strided_groups;
///
/// let groups = strided_groups(12, 4, 3);
/// assert_eq!(groups.len(), 4);
/// assert!(groups.iter().all(|members| members.len() == 3));
/// ```
pub fn strided_groups(nodes: usize, groups: usize, members: usize) -> Vec<Vec<NodeId>> {
    let mut stride = nodes / members.max(1) + 1;
    while gcd(stride, nodes) != 1 {
        stride += 1;
    }
    (0..groups)
        .map(|g| {
            (0..members)
                .map(|j| NodeId(((g + j * stride) % nodes) as u32))
                .collect()
        })
        .collect()
}

/// Per-workstation membership derived from a deployment shape: which groups
/// each workstation belongs to, and which workstations it shares a group
/// with (sorted, deduplicated — the restricted gossip peer set that keeps
/// HELLO traffic O(members), not O(nodes)).
#[derive(Debug, Clone)]
pub struct Membership {
    /// `groups_of[i]` — the groups workstation `i` is a member of.
    pub groups_of: Vec<Vec<GroupId>>,
    /// `peers_of[i]` — every workstation sharing at least one group with
    /// `i` (including `i` itself), sorted. Empty if `i` is in no group.
    pub peers_of: Vec<Vec<NodeId>>,
}

/// Computes the [`Membership`] of a deployment shape (`groups[g]` lists
/// the member workstations of group `GroupId(g + 1)`).
pub fn membership(nodes: usize, groups: &[Vec<NodeId>]) -> Membership {
    let mut groups_of: Vec<Vec<GroupId>> = vec![Vec::new(); nodes];
    let mut peers_of: Vec<Vec<NodeId>> = vec![Vec::new(); nodes];
    for (g, members) in groups.iter().enumerate() {
        let group = GroupId(g as u32 + 1);
        for &node in members {
            groups_of[node.index()].push(group);
            for &peer in members {
                if !peers_of[node.index()].contains(&peer) {
                    peers_of[node.index()].push(peer);
                }
            }
        }
    }
    for peers in &mut peers_of {
        peers.sort();
    }
    Membership {
        groups_of,
        peers_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strided_membership_is_balanced_and_symmetric() {
        let nodes = 20;
        let groups = strided_groups(nodes, 20, 5);
        // groups == nodes: every workstation is in exactly `members` groups.
        let m = membership(nodes, &groups);
        for i in 0..nodes {
            assert_eq!(m.groups_of[i].len(), 5, "workstation {i}");
            // A workstation is always its own peer.
            assert!(m.peers_of[i].contains(&NodeId(i as u32)));
            // Peer sets are sorted and deduplicated.
            let mut sorted = m.peers_of[i].clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted, m.peers_of[i]);
        }
        // Membership within a group never repeats a workstation.
        for members in &groups {
            let mut unique = members.clone();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), members.len());
        }
    }

    #[test]
    fn workstations_outside_every_group_have_no_peers() {
        let groups = strided_groups(10, 1, 3);
        let m = membership(10, &groups);
        let covered: usize = m.peers_of.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(covered, 3);
        assert_eq!(m.groups_of.iter().filter(|g| !g.is_empty()).count(), 3);
    }
}
