//! The versioned shard map: which node serves which LBA range.
//!
//! The logical device is divided into `ranges` equal LBA spans (the
//! last absorbs the remainder) by [`rif_server::shard::ShardSpec`]'s
//! partition rule, so a cluster of `rif-server` processes and a single
//! multi-shard process route identically. Each range is assigned to
//! one node; default placement uses **rendezvous (highest-random-weight)
//! hashing**, which moves only the necessary ranges when a node joins or
//! leaves.
//!
//! A map is versioned by a monotonic `epoch`. The directory is the only
//! writer; nodes and routers treat any map with a higher epoch as
//! strictly newer. The canonical text form is line-oriented and strict
//! — `parse_text(to_text())` is the identity, and anything non-canonical
//! (unsorted nodes, out-of-order assigns, stray whitespace) is rejected
//! with a line-numbered typed error.
//!
//! ```text
//! # rif-shardmap v1 epoch=3 capacity=8589934592 ranges=4
//! node a 127.0.0.1:4001
//! node b 127.0.0.1:4002
//! assign 0 a
//! assign 1 b
//! assign 2 a
//! assign 3 b
//! ```
//!
//! With a replication factor above one the header grows a `replicas=R`
//! field and each range carries a `follow` line naming its `R-1`
//! rendezvous-chosen follower nodes (the next-highest weights after the
//! primary), in order, after every `assign` line:
//!
//! ```text
//! # rif-shardmap v1 epoch=3 capacity=8589934592 ranges=2 replicas=2
//! node a 127.0.0.1:4001
//! node b 127.0.0.1:4002
//! assign 0 a
//! assign 1 b
//! follow 0 b
//! follow 1 a
//! ```
//!
//! Followers receive asynchronously shipped copies of the primary's
//! writes (DESIGN §15); on a primary death [`ShardMap::without_node`]
//! **promotes** a surviving follower rather than re-running rendezvous,
//! so the replica that already holds the range's data keeps serving it.

use rif_server::shard::ShardSpec;

/// One serving endpoint in the map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    /// Stable node id (no whitespace; sorts the node list).
    pub id: String,
    /// TCP endpoint, e.g. `127.0.0.1:4001`.
    pub addr: String,
}

/// Why a shard-map text failed to parse or a map failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMapError {
    /// The first line is not the expected `# rif-shardmap v1 ...` header.
    BadHeader,
    /// A line is neither a valid `node` nor `assign` line for its
    /// position (1-based line number).
    BadLine(usize),
    /// Node ids must be unique and strictly ascending (canonical order);
    /// this line breaks that (1-based line number).
    UnsortedNode(usize),
    /// An `assign` line names a node the map does not list.
    UnknownNode(usize),
    /// `assign` lines must cover ranges `0..ranges` in order; this line
    /// is the wrong index (1-based line number).
    AssignOutOfOrder(usize),
    /// The text ended before every range was assigned.
    MissingAssignments,
    /// A map needs at least one node.
    NoNodes,
    /// `ranges` must be at least 1 and no larger than `capacity_bytes`.
    BadGrid,
    /// A `follow` line is invalid for its range: unknown node, the
    /// primary listed as its own follower, a duplicate follower, or
    /// more followers than `replicas - 1` (1-based line number).
    BadReplica(usize),
}

impl std::fmt::Display for ShardMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardMapError::BadHeader => write!(f, "missing or malformed rif-shardmap header"),
            ShardMapError::BadLine(n) => write!(f, "line {n}: malformed line"),
            ShardMapError::UnsortedNode(n) => {
                write!(f, "line {n}: node ids must be unique and ascending")
            }
            ShardMapError::UnknownNode(n) => write!(f, "line {n}: assignment to unlisted node"),
            ShardMapError::AssignOutOfOrder(n) => {
                write!(f, "line {n}: assignments must cover ranges 0..n in order")
            }
            ShardMapError::MissingAssignments => write!(f, "not every range is assigned"),
            ShardMapError::NoNodes => write!(f, "a map needs at least one node"),
            ShardMapError::BadGrid => write!(f, "ranges must be in 1..=capacity_bytes"),
            ShardMapError::BadReplica(n) => write!(f, "line {n}: invalid follower list"),
        }
    }
}

impl std::error::Error for ShardMapError {}

/// A complete, versioned range→node assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Monotonic version; the directory bumps it on every change.
    pub epoch: u64,
    /// Logical capacity the range grid divides.
    pub capacity_bytes: u64,
    /// Number of equal LBA ranges (the last absorbs the remainder).
    pub ranges: u32,
    /// Serving endpoints, sorted ascending by id.
    pub nodes: Vec<NodeInfo>,
    /// `assignment[range]` = index into `nodes`.
    pub assignment: Vec<usize>,
    /// Replication factor `R`: each range has one primary plus up to
    /// `R - 1` followers. `1` means no replication.
    pub replicas: u32,
    /// `followers[range]` = node indices following the range, in
    /// rendezvous-rank order. Never contains `assignment[range]`; has
    /// `min(R, nodes.len()) - 1` entries under default placement.
    pub followers: Vec<Vec<usize>>,
}

/// FNV-1a rendezvous weight of `(node id, range)`: the node with the
/// highest weight owns the range. Pure function of the two inputs, so
/// every participant computes the same placement.
fn weight(id: &str, range: u32) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in id.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for b in range.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl ShardMap {
    /// Builds a map with pure rendezvous placement over `nodes`.
    /// Nodes are sorted by id; ids must be unique, non-empty, and free
    /// of whitespace (they live in a space-separated text format).
    pub fn rebalanced(
        epoch: u64,
        capacity_bytes: u64,
        ranges: u32,
        nodes: Vec<NodeInfo>,
    ) -> Result<ShardMap, ShardMapError> {
        Self::replicated(epoch, capacity_bytes, ranges, nodes, 1)
    }

    /// Builds a map with pure rendezvous placement over `nodes` and a
    /// replication factor of `replicas`: the rendezvous winner of each
    /// range is its primary and the next `replicas - 1` ranks are its
    /// followers (fewer when the cluster is smaller than `replicas`).
    pub fn replicated(
        epoch: u64,
        capacity_bytes: u64,
        ranges: u32,
        mut nodes: Vec<NodeInfo>,
        replicas: u32,
    ) -> Result<ShardMap, ShardMapError> {
        if nodes.is_empty() {
            return Err(ShardMapError::NoNodes);
        }
        if ranges == 0 || capacity_bytes < ranges as u64 || replicas == 0 {
            return Err(ShardMapError::BadGrid);
        }
        nodes.sort_by(|a, b| a.id.cmp(&b.id));
        if nodes.windows(2).any(|w| w[0].id == w[1].id)
            || nodes
                .iter()
                .any(|n| n.id.is_empty() || n.id.contains(char::is_whitespace))
            || nodes
                .iter()
                .any(|n| n.addr.is_empty() || n.addr.contains(char::is_whitespace))
        {
            return Err(ShardMapError::UnsortedNode(0));
        }
        let mut assignment = Vec::with_capacity(ranges as usize);
        let mut followers = Vec::with_capacity(ranges as usize);
        for r in 0..ranges {
            let ranked = Self::rendezvous_ranked(&nodes, r);
            assignment.push(ranked[0]);
            followers.push(
                ranked[1..]
                    .iter()
                    .take(replicas as usize - 1)
                    .copied()
                    .collect(),
            );
        }
        Ok(ShardMap {
            epoch,
            capacity_bytes,
            ranges,
            nodes,
            assignment,
            replicas,
            followers,
        })
    }

    /// The rendezvous owner of `range` among `nodes` (ties broken by
    /// id order, though FNV ties are practically nonexistent).
    fn rendezvous(nodes: &[NodeInfo], range: u32) -> usize {
        nodes
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| (weight(&n.id, range), std::cmp::Reverse(n.id.clone())))
            .map(|(i, _)| i)
            .expect("nodes is non-empty")
    }

    /// Every node index ranked by descending rendezvous weight for
    /// `range` — rank 0 is the primary, ranks `1..R` the followers.
    fn rendezvous_ranked(nodes: &[NodeInfo], range: u32) -> Vec<usize> {
        let mut ranked: Vec<usize> = (0..nodes.len()).collect();
        ranked.sort_by_key(|&i| {
            std::cmp::Reverse((
                weight(&nodes[i].id, range),
                std::cmp::Reverse(nodes[i].id.clone()),
            ))
        });
        ranked
    }

    /// Refills `range`'s follower list up to `replicas - 1` entries,
    /// keeping the surviving followers already in `keep` (locality) and
    /// drawing replacements from the rendezvous ranking, skipping the
    /// primary and anything already kept.
    fn refill_followers(&self, range: u32, primary: usize, keep: Vec<usize>) -> Vec<usize> {
        let want = (self.replicas as usize - 1).min(self.nodes.len() - 1);
        let mut out = keep;
        out.retain(|&f| f != primary);
        out.dedup();
        if out.len() < want {
            for i in Self::rendezvous_ranked(&self.nodes, range) {
                if out.len() >= want {
                    break;
                }
                if i != primary && !out.contains(&i) {
                    out.push(i);
                }
            }
        }
        out.truncate(want);
        out
    }

    /// A new epoch with `range` explicitly reassigned to node `to_id`
    /// (the directory's migration primitive).
    pub fn moved(&self, range: u32, to_id: &str) -> Result<ShardMap, ShardMapError> {
        let node = self
            .nodes
            .iter()
            .position(|n| n.id == to_id)
            .ok_or(ShardMapError::UnknownNode(0))?;
        if range >= self.ranges {
            return Err(ShardMapError::BadGrid);
        }
        let mut next = self.clone();
        next.epoch += 1;
        next.assignment[range as usize] = node;
        // The target may have been a follower; the old primary is the
        // natural replacement (it still holds the data), then rendezvous
        // fills any remaining slot.
        let mut keep: Vec<usize> = next.followers[range as usize].clone();
        if keep.contains(&node) {
            let old = self.assignment[range as usize];
            for f in keep.iter_mut() {
                if *f == node {
                    *f = old;
                }
            }
        }
        let refilled = next.refill_followers(range, node, keep);
        next.followers[range as usize] = refilled;
        Ok(next)
    }

    /// A new epoch with node `id` removed. Ranges on surviving nodes
    /// stay exactly where they are; a dead primary's range goes to its
    /// first surviving **follower** (promotion: that replica already
    /// holds the shipped data) and falls back to rendezvous over the
    /// survivors only when the range had no surviving follower — the
    /// minimal movement a failover allows. Follower lists keep their
    /// surviving members and are refilled by rendezvous rank.
    pub fn without_node(&self, id: &str) -> Result<ShardMap, ShardMapError> {
        let dead = self
            .nodes
            .iter()
            .position(|n| n.id == id)
            .ok_or(ShardMapError::UnknownNode(0))?;
        let survivors: Vec<NodeInfo> = self.nodes.iter().filter(|n| n.id != id).cloned().collect();
        if survivors.is_empty() {
            return Err(ShardMapError::NoNodes);
        }
        // Index shift past the removed node, in the survivors' space.
        let shift = |i: usize| i - usize::from(i > dead);
        let mut next = ShardMap {
            epoch: self.epoch + 1,
            capacity_bytes: self.capacity_bytes,
            ranges: self.ranges,
            nodes: survivors,
            assignment: Vec::with_capacity(self.ranges as usize),
            replicas: self.replicas,
            followers: vec![Vec::new(); self.ranges as usize],
        };
        for (r, &owner) in self.assignment.iter().enumerate() {
            let survivors_of: Vec<usize> = self.followers[r]
                .iter()
                .filter(|&&f| f != dead)
                .map(|&f| shift(f))
                .collect();
            let primary = if owner == dead {
                match survivors_of.first() {
                    Some(&promoted) => promoted,
                    None => Self::rendezvous(&next.nodes, r as u32),
                }
            } else {
                shift(owner)
            };
            next.assignment.push(primary);
            let refilled = next.refill_followers(r as u32, primary, survivors_of);
            next.followers[r] = refilled;
        }
        Ok(next)
    }

    /// The LBA range `offset` falls into: the in-process shard router's
    /// rule ([`ShardSpec::route`]) on the wrapped offset, so a map with
    /// `ranges == shards` routes exactly as a node does.
    pub fn range_of(&self, offset: u64) -> u32 {
        let wrapped = offset % self.capacity_bytes;
        ShardSpec::route(self.capacity_bytes, self.ranges as usize, wrapped) as u32
    }

    /// The node serving `range`.
    pub fn node_of(&self, range: u32) -> &NodeInfo {
        &self.nodes[self.assignment[range as usize]]
    }

    /// Routes an offset: `(range, serving node)`.
    pub fn route(&self, offset: u64) -> (u32, &NodeInfo) {
        let r = self.range_of(offset);
        (r, self.node_of(r))
    }

    /// The range indices node `id` owns (empty for unknown ids).
    pub fn owned_ranges(&self, id: &str) -> Vec<u32> {
        let Some(idx) = self.nodes.iter().position(|n| n.id == id) else {
            return Vec::new();
        };
        (0..self.ranges)
            .filter(|&r| self.assignment[r as usize] == idx)
            .collect()
    }

    /// The range indices node `id` **follows** (empty for unknown ids
    /// and for unreplicated maps).
    pub fn followed_ranges(&self, id: &str) -> Vec<u32> {
        let Some(idx) = self.nodes.iter().position(|n| n.id == id) else {
            return Vec::new();
        };
        (0..self.ranges)
            .filter(|&r| self.followers[r as usize].contains(&idx))
            .collect()
    }

    /// The follower nodes of `range`, in rendezvous-rank order.
    pub fn followers_of(&self, range: u32) -> Vec<&NodeInfo> {
        self.followers[range as usize]
            .iter()
            .map(|&i| &self.nodes[i])
            .collect()
    }

    /// Every replica of `range`, primary first.
    pub fn replicas_of(&self, range: u32) -> Vec<&NodeInfo> {
        let mut out = vec![self.node_of(range)];
        out.extend(self.followers_of(range));
        out
    }

    /// Canonical text serialization (see the module docs for the shape).
    /// Replication is spelled only when in use: an `R = 1` map
    /// serializes exactly as before replication existed.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "# rif-shardmap v1 epoch={} capacity={} ranges={}",
            self.epoch, self.capacity_bytes, self.ranges
        );
        if self.replicas > 1 {
            out.push_str(&format!(" replicas={}", self.replicas));
        }
        out.push('\n');
        for n in &self.nodes {
            out.push_str(&format!("node {} {}\n", n.id, n.addr));
        }
        for (r, &owner) in self.assignment.iter().enumerate() {
            out.push_str(&format!("assign {} {}\n", r, self.nodes[owner].id));
        }
        if self.replicas > 1 {
            for (r, fs) in self.followers.iter().enumerate() {
                out.push_str(&format!("follow {r}"));
                for &f in fs {
                    out.push_str(&format!(" {}", self.nodes[f].id));
                }
                out.push('\n');
            }
        }
        out
    }

    /// Strict parse of the canonical text form: header, sorted `node`
    /// lines, then `assign` lines covering every range in order. Errors
    /// carry 1-based line numbers.
    pub fn parse_text(text: &str) -> Result<ShardMap, ShardMapError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(ShardMapError::BadHeader)?;
        let rest = header
            .strip_prefix("# rif-shardmap v1 ")
            .ok_or(ShardMapError::BadHeader)?;
        let mut fields = rest.split(' ');
        let mut take = |name: &str| -> Result<u64, ShardMapError> {
            fields
                .next()
                .and_then(|kv| kv.strip_prefix(name))
                .and_then(|kv| kv.strip_prefix('='))
                .and_then(|v| v.parse().ok())
                .ok_or(ShardMapError::BadHeader)
        };
        let epoch = take("epoch")?;
        let capacity_bytes = take("capacity")?;
        let ranges = u32::try_from(take("ranges")?).map_err(|_| ShardMapError::BadHeader)?;
        // `replicas=R` is spelled only for replicated maps (R > 1), so
        // pre-replication texts keep parsing unchanged.
        let replicas = match fields.next() {
            None => 1,
            Some(kv) => {
                let r: u32 = kv
                    .strip_prefix("replicas=")
                    .and_then(|v| v.parse().ok())
                    .ok_or(ShardMapError::BadHeader)?;
                if r < 2 || fields.next().is_some() {
                    return Err(ShardMapError::BadHeader);
                }
                r
            }
        };
        if ranges == 0 || capacity_bytes < ranges as u64 {
            return Err(ShardMapError::BadGrid);
        }

        let mut nodes: Vec<NodeInfo> = Vec::new();
        let mut assignment: Vec<usize> = Vec::new();
        let mut followers: Vec<Vec<usize>> = Vec::new();
        for (i, line) in lines {
            let lineno = i + 1;
            let mut parts = line.split(' ');
            match parts.next() {
                Some("node") => {
                    if !assignment.is_empty() {
                        // Canonical order: every node precedes any assign.
                        return Err(ShardMapError::BadLine(lineno));
                    }
                    let (Some(id), Some(addr), None) = (parts.next(), parts.next(), parts.next())
                    else {
                        return Err(ShardMapError::BadLine(lineno));
                    };
                    if id.is_empty() || addr.is_empty() {
                        return Err(ShardMapError::BadLine(lineno));
                    }
                    if nodes.last().is_some_and(|last| last.id.as_str() >= id) {
                        return Err(ShardMapError::UnsortedNode(lineno));
                    }
                    nodes.push(NodeInfo {
                        id: id.to_string(),
                        addr: addr.to_string(),
                    });
                }
                Some("assign") => {
                    if !followers.is_empty() {
                        // Canonical order: every assign precedes any follow.
                        return Err(ShardMapError::BadLine(lineno));
                    }
                    let (Some(r), Some(id), None) = (parts.next(), parts.next(), parts.next())
                    else {
                        return Err(ShardMapError::BadLine(lineno));
                    };
                    let r: u32 = r.parse().map_err(|_| ShardMapError::BadLine(lineno))?;
                    if r as usize != assignment.len() || r >= ranges {
                        return Err(ShardMapError::AssignOutOfOrder(lineno));
                    }
                    let owner = nodes
                        .iter()
                        .position(|n| n.id == id)
                        .ok_or(ShardMapError::UnknownNode(lineno))?;
                    assignment.push(owner);
                }
                Some("follow") => {
                    // A follow section exists exactly when replication is on.
                    if replicas < 2 || assignment.len() != ranges as usize {
                        return Err(ShardMapError::BadLine(lineno));
                    }
                    let r: u32 = parts
                        .next()
                        .and_then(|r| r.parse().ok())
                        .ok_or(ShardMapError::BadLine(lineno))?;
                    if r as usize != followers.len() || r >= ranges {
                        return Err(ShardMapError::AssignOutOfOrder(lineno));
                    }
                    let mut fs: Vec<usize> = Vec::new();
                    for id in parts {
                        let f = nodes
                            .iter()
                            .position(|n| n.id == id)
                            .ok_or(ShardMapError::UnknownNode(lineno))?;
                        if f == assignment[r as usize] || fs.contains(&f) {
                            return Err(ShardMapError::BadReplica(lineno));
                        }
                        fs.push(f);
                    }
                    if fs.len() > replicas as usize - 1 {
                        return Err(ShardMapError::BadReplica(lineno));
                    }
                    followers.push(fs);
                }
                _ => return Err(ShardMapError::BadLine(lineno)),
            }
        }
        if nodes.is_empty() {
            return Err(ShardMapError::NoNodes);
        }
        if assignment.len() != ranges as usize {
            return Err(ShardMapError::MissingAssignments);
        }
        if replicas > 1 && followers.len() != ranges as usize {
            return Err(ShardMapError::MissingAssignments);
        }
        if replicas == 1 {
            followers = vec![Vec::new(); ranges as usize];
        }
        Ok(ShardMap {
            epoch,
            capacity_bytes,
            ranges,
            nodes,
            assignment,
            replicas,
            followers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes() -> Vec<NodeInfo> {
        vec![
            NodeInfo {
                id: "b".into(),
                addr: "127.0.0.1:4002".into(),
            },
            NodeInfo {
                id: "a".into(),
                addr: "127.0.0.1:4001".into(),
            },
        ]
    }

    #[test]
    fn canonical_text_roundtrips() {
        let m = ShardMap::rebalanced(3, 8 << 30, 4, two_nodes()).unwrap();
        assert_eq!(m.nodes[0].id, "a", "nodes sort by id");
        let parsed = ShardMap::parse_text(&m.to_text()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn routing_matches_shard_spec() {
        use rif_server::shard::ShardSpec;
        let cap = 1 << 30;
        let m = ShardMap::rebalanced(1, cap, 4, two_nodes()).unwrap();
        for offset in [
            0u64,
            1,
            cap / 4 - 1,
            cap / 4,
            cap / 2,
            cap - 1,
            cap,
            3 * cap,
        ] {
            assert_eq!(
                m.range_of(offset) as usize,
                ShardSpec::route(cap, 4, offset % cap),
                "offset {offset}"
            );
        }
    }

    #[test]
    fn full_coverage_no_overlap() {
        let m = ShardMap::rebalanced(1, 1000, 7, two_nodes()).unwrap();
        assert_eq!(m.assignment.len(), 7);
        let a = m.owned_ranges("a");
        let b = m.owned_ranges("b");
        assert_eq!(a.len() + b.len(), 7);
        assert!(a.iter().all(|r| !b.contains(r)));
    }

    #[test]
    fn node_leave_moves_only_its_ranges() {
        let nodes = vec![
            NodeInfo {
                id: "a".into(),
                addr: "h:1".into(),
            },
            NodeInfo {
                id: "b".into(),
                addr: "h:2".into(),
            },
            NodeInfo {
                id: "c".into(),
                addr: "h:3".into(),
            },
        ];
        let m = ShardMap::rebalanced(1, 1 << 20, 16, nodes).unwrap();
        let next = m.without_node("b").unwrap();
        assert_eq!(next.epoch, m.epoch + 1);
        assert!(next.nodes.iter().all(|n| n.id != "b"));
        for r in 0..16u32 {
            let before = m.node_of(r).id.clone();
            if before != "b" {
                assert_eq!(next.node_of(r).id, before, "range {r} moved needlessly");
            } else {
                assert_ne!(next.node_of(r).id, "b");
            }
        }
    }

    #[test]
    fn moved_bumps_epoch_and_reassigns() {
        let m = ShardMap::rebalanced(5, 1 << 20, 4, two_nodes()).unwrap();
        let next = m.moved(2, "a").unwrap();
        assert_eq!(next.epoch, 6);
        assert_eq!(next.node_of(2).id, "a");
        assert!(m.moved(9, "a").is_err());
        assert!(m.moved(0, "zz").is_err());
    }

    #[test]
    fn malformed_texts_are_rejected_with_line_numbers() {
        use ShardMapError as E;
        let ok = "# rif-shardmap v1 epoch=1 capacity=1000 ranges=2\nnode a h:1\nassign 0 a\nassign 1 a\n";
        assert!(ShardMap::parse_text(ok).is_ok());
        let cases = [
            ("", E::BadHeader),
            ("# rif-shardmap v2 epoch=1 capacity=10 ranges=1\n", E::BadHeader),
            ("# rif-shardmap v1 epoch=x capacity=10 ranges=1\n", E::BadHeader),
            ("# rif-shardmap v1 epoch=1 capacity=10 ranges=0\n", E::BadGrid),
            (
                "# rif-shardmap v1 epoch=1 capacity=1000 ranges=1\nnoode a h:1\n",
                E::BadLine(2),
            ),
            (
                "# rif-shardmap v1 epoch=1 capacity=1000 ranges=1\nnode b h:1\nnode a h:2\nassign 0 a\n",
                E::UnsortedNode(3),
            ),
            (
                "# rif-shardmap v1 epoch=1 capacity=1000 ranges=1\nnode a h:1\nnode a h:2\nassign 0 a\n",
                E::UnsortedNode(3),
            ),
            (
                "# rif-shardmap v1 epoch=1 capacity=1000 ranges=1\nnode a h:1\nassign 0 q\n",
                E::UnknownNode(3),
            ),
            (
                "# rif-shardmap v1 epoch=1 capacity=1000 ranges=2\nnode a h:1\nassign 1 a\n",
                E::AssignOutOfOrder(3),
            ),
            (
                "# rif-shardmap v1 epoch=1 capacity=1000 ranges=2\nnode a h:1\nassign 0 a\n",
                E::MissingAssignments,
            ),
            (
                "# rif-shardmap v1 epoch=1 capacity=1000 ranges=1\nassign 0 a\n",
                E::UnknownNode(2),
            ),
            (
                "# rif-shardmap v1 epoch=1 capacity=1000 ranges=1\nnode a h:1\nassign 0 a\nnode b h:2\n",
                E::BadLine(4),
            ),
        ];
        for (text, want) in cases {
            assert_eq!(ShardMap::parse_text(text), Err(want), "text {text:?}");
        }
    }

    fn three_nodes() -> Vec<NodeInfo> {
        vec![
            NodeInfo {
                id: "a".into(),
                addr: "h:1".into(),
            },
            NodeInfo {
                id: "b".into(),
                addr: "h:2".into(),
            },
            NodeInfo {
                id: "c".into(),
                addr: "h:3".into(),
            },
        ]
    }

    #[test]
    fn replicated_map_has_disjoint_replicas_and_roundtrips() {
        let m = ShardMap::replicated(1, 1 << 20, 8, three_nodes(), 2).unwrap();
        assert_eq!(m.replicas, 2);
        for r in 0..8u32 {
            let fs = &m.followers[r as usize];
            assert_eq!(fs.len(), 1, "R=2 on 3 nodes gives one follower");
            assert!(
                !fs.contains(&m.assignment[r as usize]),
                "primary follows itself"
            );
        }
        let parsed = ShardMap::parse_text(&m.to_text()).unwrap();
        assert_eq!(parsed, m);
        // An unreplicated map serializes without any replica vocabulary.
        let plain = ShardMap::rebalanced(1, 1 << 20, 4, three_nodes()).unwrap();
        assert!(!plain.to_text().contains("replicas"));
        assert!(!plain.to_text().contains("follow"));
        assert_eq!(ShardMap::parse_text(&plain.to_text()).unwrap(), plain);
    }

    #[test]
    fn killing_a_primary_promotes_its_follower() {
        let m = ShardMap::replicated(1, 1 << 20, 16, three_nodes(), 2).unwrap();
        for victim in ["a", "b", "c"] {
            let next = m.without_node(victim).unwrap();
            for r in 0..16u32 {
                let before = m.node_of(r).id.clone();
                if before == victim {
                    // The surviving follower is promoted, not an
                    // arbitrary rendezvous pick.
                    let follower = m.followers_of(r)[0].id.clone();
                    if follower != victim {
                        assert_eq!(next.node_of(r).id, follower, "range {r} not promoted");
                    }
                } else {
                    assert_eq!(next.node_of(r).id, before, "range {r} moved needlessly");
                }
                // Follower slots are refilled from the survivors.
                assert_eq!(next.followers_of(r).len(), 1);
                assert_ne!(next.followers_of(r)[0].id, next.node_of(r).id);
            }
        }
    }

    #[test]
    fn moved_to_a_follower_swaps_in_the_old_primary() {
        let m = ShardMap::replicated(1, 1 << 20, 4, three_nodes(), 2).unwrap();
        let follower = m.followers_of(0)[0].id.clone();
        let old_primary = m.node_of(0).id.clone();
        let next = m.moved(0, &follower).unwrap();
        assert_eq!(next.node_of(0).id, follower);
        assert_eq!(next.followers_of(0)[0].id, old_primary);
    }

    #[test]
    fn malformed_follow_lines_are_rejected() {
        use ShardMapError as E;
        let base = "# rif-shardmap v1 epoch=1 capacity=1000 ranges=2 replicas=2\nnode a h:1\nnode b h:2\nassign 0 a\nassign 1 b\n";
        let cases = [
            // Primary listed as its own follower.
            (format!("{base}follow 0 a\nfollow 1 a\n"), E::BadReplica(6)),
            // Duplicate follower.
            (format!("{base}follow 0 b b\nfollow 1 a\n"), E::BadReplica(6)),
            // Unknown follower node.
            (format!("{base}follow 0 q\nfollow 1 a\n"), E::UnknownNode(6)),
            // Out-of-order follow lines.
            (format!("{base}follow 1 a\nfollow 0 b\n"), E::AssignOutOfOrder(6)),
            // Missing the second follow line.
            (format!("{base}follow 0 b\n"), E::MissingAssignments),
            // Follow line without replication declared.
            (
                "# rif-shardmap v1 epoch=1 capacity=1000 ranges=1\nnode a h:1\nassign 0 a\nfollow 0\n"
                    .to_string(),
                E::BadLine(4),
            ),
            // replicas=1 is not a canonical spelling.
            (
                "# rif-shardmap v1 epoch=1 capacity=1000 ranges=1 replicas=1\nnode a h:1\nassign 0 a\n"
                    .to_string(),
                E::BadHeader,
            ),
        ];
        for (text, want) in cases {
            assert_eq!(ShardMap::parse_text(&text), Err(want), "text {text:?}");
        }
    }
}
