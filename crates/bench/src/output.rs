//! Experiment output routing: stdout plus an optional per-experiment file.
//!
//! [`ExperimentWriter`] replaces raw `println!` in the table/figure
//! functions. Every line still reaches stdout (the tables remain
//! copy-pasteable from a terminal), and when telemetry is enabled with a
//! run directory, the same lines are teed into
//! `<run_dir>/tables/<experiment>.txt` so a campaign leaves its rendered
//! tables behind as artifacts.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use agsc_telemetry as tlm;

/// Line sink that tees experiment output to stdout and (optionally) a file.
#[derive(Debug)]
pub struct ExperimentWriter {
    file: Option<BufWriter<File>>,
    path: Option<PathBuf>,
}

impl ExperimentWriter {
    /// Writer for `experiment`: stdout always; a `tables/<experiment>.txt`
    /// file too when the telemetry run directory is available. File-creation
    /// failures degrade to stdout-only with a telemetry warning.
    pub fn for_experiment(experiment: &str) -> Self {
        let path = tlm::run_dir().map(|d| d.join("tables").join(format!("{experiment}.txt")));
        let file = path.as_ref().and_then(|p| match open_table_file(p) {
            Ok(f) => Some(BufWriter::new(f)),
            Err(err) => {
                tlm::warn("bench_table_io", |e| {
                    e.str("path", p.display().to_string()).str("error", err.to_string())
                });
                None
            }
        });
        let path = file.is_some().then_some(path).flatten();
        Self { file, path }
    }

    /// The table file being written, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Emit one line to stdout and the table file.
    pub fn line(&mut self, text: impl AsRef<str>) {
        let text = text.as_ref();
        println!("{text}");
        if let Some(f) = self.file.as_mut() {
            if writeln!(f, "{text}").is_err() {
                self.file = None;
            }
        }
    }

    /// Flush the table file and return its path.
    pub fn finish(mut self) -> Option<PathBuf> {
        if let Some(f) = self.file.as_mut() {
            if let Err(err) = f.flush() {
                tlm::warn("bench_table_io", |e| e.str("error", err.to_string()));
                return None;
            }
        }
        self.path.take()
    }
}

fn open_table_file(path: &Path) -> std::io::Result<File> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    File::create(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdout_only_writer_accepts_lines_and_has_no_path() {
        let mut w = ExperimentWriter { file: None, path: None };
        w.line("header");
        w.line(format!("row {}", 1));
        assert!(w.path().is_none());
        assert!(w.finish().is_none());
    }
}
