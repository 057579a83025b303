//! Output scoring, written apart from the library's own metrics so that a
//! fault there cannot hide a fault in the outputs it scores.

/// Precision, recall and F1 of binary decisions against gold labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binary {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

pub fn binary(decisions: &[bool], gold: &[bool]) -> Binary {
    assert_eq!(decisions.len(), gold.len(), "one decision per gold label");
    let (mut tp, mut fp, mut fn_) = (0u64, 0u64, 0u64);
    for (d, g) in decisions.iter().zip(gold) {
        match (d, g) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    let div = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let precision = div(tp, tp + fp);
    let recall = div(tp, tp + fn_);
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    Binary {
        precision,
        recall,
        f1,
    }
}

/// Kendall's tau-b between two score vectors over the same items
/// (O(n²), which is fine for the list sizes scored here). `None` when
/// either side is constant.
pub fn kendall_tau_b(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len());
    let (mut concordant, mut discordant) = (0i64, 0i64);
    let (mut ties_x, mut ties_y) = (0i64, 0i64);
    for i in 0..x.len() {
        for j in i + 1..x.len() {
            let dx = x[i] - x[j];
            let dy = y[i] - y[j];
            if dx == 0.0 && dy == 0.0 {
                continue;
            } else if dx == 0.0 {
                ties_x += 1;
            } else if dy == 0.0 {
                ties_y += 1;
            } else if (dx > 0.0) == (dy > 0.0) {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let n0 = (concordant + discordant + ties_x) as f64;
    let n1 = (concordant + discordant + ties_y) as f64;
    if n0 == 0.0 || n1 == 0.0 {
        return None;
    }
    Some((concordant - discordant) as f64 / (n0 * n1).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_counts() {
        let b = binary(&[true, true, false, false], &[true, false, true, false]);
        assert_eq!(b.precision, 0.5);
        assert_eq!(b.recall, 0.5);
        assert_eq!(b.f1, 0.5);
    }

    #[test]
    fn tau_b_extremes_and_ties() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(kendall_tau_b(&x, &x), Some(1.0));
        assert_eq!(kendall_tau_b(&x, &[4.0, 3.0, 2.0, 1.0]), Some(-1.0));
        assert_eq!(kendall_tau_b(&x, &[1.0, 1.0, 1.0, 1.0]), None);
        // One swapped pair out of six: (5 - 1) / 6.
        let t = kendall_tau_b(&x, &[2.0, 1.0, 3.0, 4.0]).unwrap();
        assert!((t - 4.0 / 6.0).abs() < 1e-12);
    }
}
