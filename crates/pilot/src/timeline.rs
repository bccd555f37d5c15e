//! Execution timelines: Gantt-style views of a run's task records.
//!
//! The paper's Figs. 4–5 aggregate per-device utilization; for debugging
//! scheduling behaviour you usually want the orthogonal view — *which task
//! ran when, on what* — i.e. a Gantt chart. [`Timeline`] builds one from the
//! profiler's [`TaskRecord`]s, renders it as ASCII, and exports it as
//! serializable rows for external plotting.

use crate::profiler::TaskRecord;
use impress_json::json_struct;
use impress_sim::{SimDuration, SimTime};

/// One Gantt row: a task's placement in time and on devices.
#[derive(Debug, Clone)]
pub struct GanttRow {
    /// Task id.
    pub id: u64,
    /// Task name.
    pub name: String,
    /// Bookkeeping tag (pipeline/stage).
    pub tag: String,
    /// Queue wait before the slots were granted.
    pub wait: SimDuration,
    /// Slot-holding window start.
    pub start: SimTime,
    /// Slot-holding window end.
    pub end: SimTime,
    /// Cores held.
    pub cores: u32,
    /// GPUs held.
    pub gpus: u32,
}
json_struct!(GanttRow {
    id,
    name,
    tag,
    wait,
    start,
    end,
    cores,
    gpus
});

/// A run's Gantt chart.
#[derive(Debug, Clone)]
pub struct Timeline {
    rows: Vec<GanttRow>,
    end: SimTime,
}
json_struct!(Timeline { rows, end });

impl Timeline {
    /// Build from completed-task records (start-time order).
    pub fn from_records(records: &[TaskRecord]) -> Timeline {
        let mut rows: Vec<GanttRow> = records
            .iter()
            .map(|r| GanttRow {
                id: r.id,
                name: r.name.to_string(),
                tag: r.tag.to_string(),
                wait: r.wait(),
                start: r.started,
                end: r.finished,
                cores: r.cores,
                gpus: r.gpus,
            })
            .collect();
        rows.sort_by_key(|r| (r.start, r.id));
        let end = rows.iter().map(|r| r.end).max().unwrap_or(SimTime::ZERO);
        Timeline { rows, end }
    }

    /// The rows, in start order.
    pub fn rows(&self) -> &[GanttRow] {
        &self.rows
    }

    /// Latest task end.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Mean queue wait across tasks.
    pub fn mean_wait(&self) -> SimDuration {
        if self.rows.is_empty() {
            return SimDuration::ZERO;
        }
        let total: f64 = self.rows.iter().map(|r| r.wait.as_secs_f64()).sum();
        SimDuration::from_secs_f64(total / self.rows.len() as f64)
    }

    /// Render an ASCII Gantt chart, `width` columns wide, at most
    /// `max_rows` rows (longest tasks first beyond that are dropped with a
    /// note). Each row: `name [  ███▒      ]` where `▒` marks queue wait.
    pub fn render(&self, width: usize, max_rows: usize) -> String {
        assert!(width >= 10, "need at least 10 columns");
        if self.rows.is_empty() {
            return "(empty timeline)\n".to_string();
        }
        let span = self.end.as_secs_f64().max(1e-9);
        let col = |t: SimTime| -> usize {
            ((t.as_secs_f64() / span) * (width - 1) as f64).round() as usize
        };
        let mut out = String::new();
        let shown = self.rows.len().min(max_rows);
        for row in &self.rows[..shown] {
            let submit =
                SimTime::from_micros(row.start.as_micros().saturating_sub(row.wait.as_micros()));
            let (s, w, e) = (col(submit), col(row.start), col(row.end));
            let mut bar: Vec<char> = vec![' '; width];
            for c in bar.iter_mut().take(w).skip(s) {
                *c = '\u{2592}'; // ▒ queued
            }
            for c in bar.iter_mut().take(e.max(w + 1)).skip(w) {
                *c = '\u{2588}'; // █ running
            }
            let label: String = format!("{:<18}", row.name).chars().take(18).collect();
            out.push_str(&format!(
                "{label} |{}| {}c{}\n",
                bar.into_iter().collect::<String>(),
                row.cores,
                if row.gpus > 0 {
                    format!("+{}g", row.gpus)
                } else {
                    String::new()
                }
            ));
        }
        if shown < self.rows.len() {
            out.push_str(&format!("… {} more tasks\n", self.rows.len() - shown));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, name: &str, submit: u64, start: u64, end: u64, gpus: u32) -> TaskRecord {
        TaskRecord {
            id,
            name: name.into(),
            tag: format!("pl.{id}").into(),
            submitted: SimTime::from_micros(submit * 1_000_000),
            started: SimTime::from_micros(start * 1_000_000),
            finished: SimTime::from_micros(end * 1_000_000),
            cores: 2,
            gpus,
        }
    }

    #[test]
    fn rows_sorted_by_start_and_end_found() {
        let tl = Timeline::from_records(&[
            record(2, "later", 5, 10, 20, 0),
            record(1, "early", 0, 1, 5, 1),
        ]);
        assert_eq!(tl.rows()[0].name, "early");
        assert_eq!(tl.end(), SimTime::from_micros(20_000_000));
    }

    #[test]
    fn mean_wait_is_correct() {
        let tl = Timeline::from_records(&[
            record(1, "a", 0, 4, 5, 0), // wait 4
            record(2, "b", 0, 2, 5, 0), // wait 2
        ]);
        assert!((tl.mean_wait().as_secs_f64() - 3.0).abs() < 1e-9);
        assert_eq!(Timeline::from_records(&[]).mean_wait(), SimDuration::ZERO);
    }

    #[test]
    fn render_marks_wait_and_run() {
        let tl = Timeline::from_records(&[record(1, "msa", 0, 50, 100, 0)]);
        let text = tl.render(40, 10);
        assert!(text.contains('\u{2592}'), "wait shading present: {text}");
        assert!(text.contains('\u{2588}'), "run bar present: {text}");
        assert!(text.contains("msa"));
        assert!(text.contains("2c"));
    }

    #[test]
    fn render_truncates_rows() {
        let records: Vec<TaskRecord> = (0..20)
            .map(|i| record(i, &format!("t{i}"), 0, i, i + 1, 0))
            .collect();
        let text = Timeline::from_records(&records).render(30, 5);
        assert!(text.contains("… 15 more tasks"));
        assert_eq!(text.lines().count(), 6);
    }

    #[test]
    fn gpu_suffix_appears() {
        let tl = Timeline::from_records(&[record(1, "inf", 0, 0, 10, 1)]);
        assert!(tl.render(30, 5).contains("2c+1g"));
    }

    #[test]
    fn empty_timeline_renders_placeholder() {
        assert_eq!(
            Timeline::from_records(&[]).render(30, 5),
            "(empty timeline)\n"
        );
    }
}
