//! Figures 3–6: CPU-only performance on JaguarPF and Hopper II.

use crate::data::{FigureData, Series};
use machine::{hopper_ii, jaguarpf, Machine};
use perfmodel::cpu::{best_cpu_gf, CpuImpl, CpuScenario};

/// JaguarPF core counts: 12 … 12288 (powers of two nodes).
pub fn jaguar_cores() -> Vec<usize> {
    (0..11).map(|e| 12 << e).collect()
}

/// Hopper II core counts: 24 … 49152.
pub fn hopper_cores() -> Vec<usize> {
    (0..12).map(|e| 24 << e).collect()
}

/// Best performance of each CPU implementation vs. cores (Figures 3, 4).
fn best_per_impl(id: &'static str, m: &Machine, cores: &[usize]) -> FigureData {
    let impls = [
        (CpuImpl::SingleTask, "single task"),
        (CpuImpl::BulkSync, "bulk-synchronous MPI"),
        (CpuImpl::Nonblocking, "MPI nonblocking overlap"),
        (CpuImpl::ThreadOverlap, "MPI OpenMP-thread overlap"),
    ];
    let series = impls
        .iter()
        .map(|&(im, label)| Series {
            label: label.into(),
            points: cores
                .iter()
                .map(|&c| (c as f64, best_cpu_gf(m, im, c).0))
                .collect(),
        })
        .collect();
    FigureData {
        id,
        title: format!(
            "Best performance of each {} implementation for a range of core counts",
            m.name
        ),
        x_label: "cores",
        y_label: "GF",
        series,
        notes: vec![
            "each value is the best over the measured numbers of OpenMP threads per MPI task"
                .into(),
        ],
    }
}

/// Figure 3: JaguarPF.
pub fn fig03() -> FigureData {
    best_per_impl("fig03", &jaguarpf(), &jaguar_cores())
}

/// Figure 4: Hopper II (scales further thanks to Gemini).
pub fn fig04() -> FigureData {
    best_per_impl("fig04", &hopper_ii(), &hopper_cores())
}

/// Bulk-synchronous performance per threads-per-task (Figures 5, 6).
fn per_thread(id: &'static str, m: &Machine, cores: &[usize]) -> FigureData {
    let series = m
        .thread_choices
        .iter()
        .map(|&t| Series {
            label: format!("{t} threads/task"),
            points: cores
                .iter()
                .filter(|&&c| c % t == 0 && c >= t)
                .map(|&c| (c as f64, CpuScenario::new(m, c, t).gf(CpuImpl::BulkSync)))
                .collect(),
        })
        .collect();
    FigureData {
        id,
        title: format!(
            "Bulk-synchronous implementation on {} for various numbers of OpenMP threads per MPI task",
            m.name
        ),
        x_label: "cores",
        y_label: "GF",
        series,
        notes: vec![],
    }
}

/// Figure 5: JaguarPF threads-per-task sweep.
pub fn fig05() -> FigureData {
    per_thread("fig05", &jaguarpf(), &jaguar_cores())
}

/// Figure 6: Hopper II threads-per-task sweep.
pub fn fig06() -> FigureData {
    per_thread("fig06", &hopper_ii(), &hopper_cores())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03_reproduces_crossover() {
        let f = fig03();
        let find =
            |label: &str| -> &Series { f.series.iter().find(|s| s.label.contains(label)).unwrap() };
        let bulk = find("bulk");
        let nb = find("nonblocking");
        let at = |s: &Series, c: f64| s.points.iter().find(|p| p.0 == c).unwrap().1;
        // Nonblocking slightly ahead at low counts, behind at 12288.
        assert!(at(nb, 192.0) > at(bulk, 192.0));
        assert!(at(nb, 12288.0) < at(bulk, 12288.0));
    }

    #[test]
    fn fig04_crossover_is_later_than_fig03() {
        let f3 = fig03();
        let f4 = fig04();
        let cross = |f: &FigureData| -> f64 {
            let bulk = f.series.iter().find(|s| s.label.contains("bulk")).unwrap();
            let nb = f
                .series
                .iter()
                .find(|s| s.label.contains("nonblocking"))
                .unwrap();
            for (b, n) in bulk.points.iter().zip(&nb.points) {
                if b.1 > n.1 && b.0 > 24.0 {
                    return b.0;
                }
            }
            f64::INFINITY
        };
        let c3 = cross(&f3);
        let c4 = cross(&f4);
        assert!(
            c4 > 2.0 * c3,
            "Jaguar crossover {c3}, Hopper crossover {c4}"
        );
    }

    #[test]
    fn fig05_has_five_thread_series() {
        let f = fig05();
        assert_eq!(f.series.len(), 5);
        // The 12-thread series starts at 12 cores (12 % 12 == 0).
        assert!(f.series.iter().all(|s| !s.points.is_empty()));
    }

    #[test]
    fn fig06_includes_24_thread_series() {
        let f = fig06();
        assert_eq!(f.series.len(), 6);
        let s24 = f.series.iter().find(|s| s.label.starts_with("24")).unwrap();
        // 24 threads/task is never the best series (the paper's finding).
        let s12 = f.series.iter().find(|s| s.label.starts_with("12")).unwrap();
        for (a, b) in s24.points.iter().zip(s12.points.iter()) {
            if a.0 == b.0 {
                assert!(a.1 <= b.1 * 1.001, "24 threads beat 12 at {} cores", a.0);
            }
        }
    }
}
