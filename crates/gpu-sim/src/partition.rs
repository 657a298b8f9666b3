/// The paper's multi-GPU work division: walk the target-node list in order,
/// accumulating `Interactions(t)`; once the running count for the current
/// GPU meets or exceeds its quota, start filling the next GPU.
///
/// Device `i` with relative speed `shares[i]` is filled until it holds
/// `⌈total · shares[i] / Σ shares⌉`; with equal (unit) shares that is the
/// paper's `⌈total / n_gpus⌉` for every device — heterogeneous device
/// mixes are the extension.
///
/// Every target node goes to exactly one GPU ("there is no target node whose
/// calculations are spread out over more than one GPU"). Returns
/// `shares.len()` groups of indices into `weights`; trailing groups may be
/// empty when there are fewer nodes than GPUs.
pub fn partition_by_interactions(weights: &[u64], shares: &[f64]) -> Vec<Vec<usize>> {
    let n = shares.len();
    assert!(n >= 1);
    assert!(shares.iter().all(|&s| s > 0.0 && s.is_finite()));
    let mut groups = vec![Vec::new(); n];
    if weights.is_empty() {
        return groups;
    }
    let total: u64 = weights.iter().sum();
    let share_sum: f64 = shares.iter().sum();
    let quota = |g: usize| (total as f64 * shares[g] / share_sum).ceil().max(1.0) as u64;
    let mut g = 0usize;
    let mut acc = 0u64;
    let mut target = quota(0);
    for (i, &w) in weights.iter().enumerate() {
        groups[g].push(i);
        acc += w;
        if acc >= target && g + 1 < n {
            g += 1;
            acc = 0;
            target = quota(g);
        }
    }
    groups
}

/// Naive baseline for the ablation bench: split the target-node list into
/// `n_gpus` contiguous groups of (nearly) equal *node count*, ignoring how
/// much work each node carries.
pub fn partition_by_node_count(n_items: usize, n_gpus: usize) -> Vec<Vec<usize>> {
    assert!(n_gpus >= 1);
    let mut groups = vec![Vec::new(); n_gpus];
    let base = n_items / n_gpus;
    let extra = n_items % n_gpus;
    let mut i = 0usize;
    for (g, group) in groups.iter_mut().enumerate() {
        let len = base + usize::from(g < extra);
        group.extend(i..i + len);
        i += len;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The walk over `n` devices of one speed.
    fn walk(weights: &[u64], n: usize) -> Vec<Vec<usize>> {
        partition_by_interactions(weights, &vec![1.0; n])
    }

    fn covers_exactly_once(groups: &[Vec<usize>], n: usize) {
        let mut seen = vec![false; n];
        for g in groups {
            for &i in g {
                assert!(!seen[i], "item {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some item unassigned");
    }

    #[test]
    fn interaction_partition_covers_all_items() {
        let w: Vec<u64> = (0..57).map(|i| (i * 37 % 100 + 1) as u64).collect();
        for n in [1usize, 2, 3, 4, 8] {
            let groups = walk(&w, n);
            assert_eq!(groups.len(), n);
            covers_exactly_once(&groups, w.len());
        }
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let w = vec![10u64; 40];
        let groups = walk(&w, 4);
        for g in &groups {
            assert_eq!(g.len(), 10, "{groups:?}");
        }
    }

    #[test]
    fn imbalance_bounded_by_one_item() {
        // Each group's weight exceeds the ideal share by at most the weight
        // of its last (straddling) item — the guarantee of the paper's walk.
        let w: Vec<u64> = (0..200).map(|i| (i * 7919 % 500 + 1) as u64).collect();
        let n = 4;
        let total: u64 = w.iter().sum();
        let share = total.div_ceil(n as u64);
        let groups = walk(&w, n);
        for g in &groups {
            let sum: u64 = g.iter().map(|&i| w[i]).sum();
            let max_item = g.iter().map(|&i| w[i]).max().unwrap_or(0);
            assert!(
                sum <= share + max_item,
                "group weight {sum} vs share {share}"
            );
        }
    }

    #[test]
    fn order_is_preserved() {
        let w = vec![5u64; 10];
        let groups = walk(&w, 3);
        let flat: Vec<usize> = groups.concat();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn one_gpu_gets_everything() {
        let w = vec![1u64, 2, 3];
        let groups = walk(&w, 1);
        assert_eq!(groups, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn more_gpus_than_items() {
        let w = vec![100u64, 100];
        let groups = walk(&w, 4);
        assert_eq!(groups.len(), 4);
        covers_exactly_once(&groups, 2);
    }

    #[test]
    fn empty_weights() {
        let groups = walk(&[], 3);
        assert_eq!(groups, vec![Vec::<usize>::new(); 3]);
    }

    #[test]
    fn node_count_partition_is_even() {
        let groups = partition_by_node_count(10, 3);
        assert_eq!(groups[0].len(), 4);
        assert_eq!(groups[1].len(), 3);
        assert_eq!(groups[2].len(), 3);
        covers_exactly_once(&groups, 10);
    }
}
