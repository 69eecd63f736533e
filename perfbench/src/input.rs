//! Input characterisation, recorded with each workload's results so that a
//! change helping only late-heavy or skewed inputs can cite the share.

use crate::Report;
use insight_datagen::regions::Region;
use insight_datagen::scenario::Scenario;

/// The query grid a workload evaluates: queries at `first, first + step, …`
/// up to the scenario end, each covering `(q − wm, q]`.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    /// First query time.
    pub first: i64,
    /// Query step in seconds.
    pub step: i64,
    /// Working memory in seconds.
    pub wm: i64,
}

impl Grid {
    /// The first grid query at or after occurrence time `t`: the first query
    /// whose window covers `t` (the step never exceeds the working memory).
    fn first_query_covering(&self, t: i64) -> i64 {
        if t <= self.first {
            self.first
        } else {
            self.first + (t - self.first + self.step - 1) / self.step * self.step
        }
    }
}

/// Records SDE count, SDEs per window, late share and the largest region's
/// share of SDEs.
pub fn characterise(scenario: &Scenario, grid: Grid, report: &mut Report) {
    let sdes = &scenario.sdes;
    let n = sdes.len().max(1) as f64;
    let late = sdes.iter().filter(|s| s.arrival > grid.first_query_covering(s.time)).count();

    let mut per_region = [0usize; 4];
    for s in sdes {
        per_region[s.region().index()] += 1;
    }
    let largest = per_region.iter().copied().max().unwrap_or(0);
    let largest_region = Region::ALL[per_region.iter().position(|&c| c == largest).unwrap_or(0)];

    // SDEs visible to each query: occurrence in (q − wm, q], arrived by q.
    let (_, end) = scenario.window();
    let mut windows = 0usize;
    let mut visible = 0usize;
    let mut q = grid.first;
    while q <= end {
        visible += sdes
            .iter()
            .take_while(|s| s.arrival <= q)
            .filter(|s| s.time > q - grid.wm && s.time <= q)
            .count();
        windows += 1;
        q += grid.step;
    }
    let per_window = visible as f64 / windows.max(1) as f64;

    report.layer("input.sdes", sdes.len() as f64);
    report.layer("input.sdes_per_window", per_window);
    report.layer("input.late_share", late as f64 / n);
    report.layer("input.largest_region_share", largest as f64 / n);
    report.note(format!(
        "input: {} SDEs, {per_window:.0} SDEs per window over {windows} windows \
         (WM {} s, step {} s), late share {:.4}, largest region {largest_region} with {:.4} \
         of SDEs",
        sdes.len(),
        grid.wm,
        grid.step,
        late as f64 / n,
        largest as f64 / n
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_covering_query_rounds_up_to_the_grid() {
        let g = Grid { first: 1000, step: 31, wm: 600 };
        assert_eq!(g.first_query_covering(500), 1000);
        assert_eq!(g.first_query_covering(1000), 1000);
        assert_eq!(g.first_query_covering(1001), 1031);
        assert_eq!(g.first_query_covering(1031), 1031);
        assert_eq!(g.first_query_covering(1032), 1062);
    }
}
