//! The four serving workloads, their datasets, and their job streams.
//!
//! Datasets are fixed RMAT graphs (the benchmark's corpus, like the
//! paper's fixed datasets), generated once per checkout into
//! [`DATA_DIR`]. The job stream — start-vertex shuffle seeds, tenants
//! and open-loop arrival times — is drawn from the run's `--seed`.

use std::path::{Path, PathBuf};
use std::time::Duration;

use lightrw::graph::{generators, pack, ShardStrategy};
use lightrw::jobspec::{job_to_json, TraceJob};
use lightrw::rng::{Rng, SplitMix64};
use lightrw::walker::{Node2Vec, StaticWeighted, Uniform, WalkApp, WalkProgram};

/// Where generated datasets, spools and traces live, relative to the
/// checkout root the benchmark runs from.
pub const DATA_DIR: &str = ".bench_data";

/// One packed RMAT file.
#[derive(Debug, Clone, Copy)]
pub struct Dataset {
    pub file: &'static str,
    pub scale: u32,
    pub seed: u64,
    /// Degree-descending relabeling persisted in the file.
    pub relabel: bool,
    /// Two walk-partitioned shards, varint-compressed columns.
    pub sharded: bool,
}

impl Dataset {
    pub fn path(&self) -> PathBuf {
        Path::new(DATA_DIR).join(self.file)
    }

    /// Pack the file (untimed input generation), via a temporary name
    /// so an interrupted run never leaves a half-written dataset.
    pub fn generate(&self) -> Result<(), String> {
        std::fs::create_dir_all(DATA_DIR).map_err(|e| format!("{DATA_DIR}: {e}"))?;
        let part = self.path().with_extension("part");
        if self.sharded {
            let mut g = generators::rmat_dataset(self.scale, self.seed);
            pack::pack_graph_with(&mut g, self.relabel, 2, ShardStrategy::Walk, true, &part)
                .map_err(|e| e.to_string())?;
        } else {
            let opts = pack::PackOptions {
                relabel: self.relabel,
                ..pack::PackOptions::default()
            };
            pack::pack_rmat_dataset(self.scale, self.seed, &part, &opts)
                .map_err(|e| e.to_string())?;
        }
        std::fs::rename(&part, self.path()).map_err(|e| e.to_string())
    }
}

/// rmat-21 in original ids: the audit's reference for the relabeled copy.
const RMAT21: Dataset = Dataset {
    file: "rmat21.lrwpak",
    scale: 21,
    seed: 21,
    relabel: false,
    sharded: false,
};

/// The walk application a workload's server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Uniform,
    StaticWeighted,
    Node2Vec,
}

impl App {
    pub fn build(&self) -> Box<dyn WalkApp> {
        match self {
            App::Uniform => Box::new(Uniform),
            App::StaticWeighted => Box::new(StaticWeighted),
            App::Node2Vec => Box::new(Node2Vec::paper_params()),
        }
    }
}

/// How the graph is held while serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// `mmap`'d straight from the packed file.
    Mapped,
    /// Copied onto the heap at load.
    Heap,
}

/// The engine behind the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Backend::Cpu` with one lane per core.
    Cpu,
    /// The sharded engine over the file's own 2-shard partition, its
    /// two shard lanes interleaved on the scheduler thread.
    Sharded,
}

/// A job shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub queries: usize,
    pub length: u32,
    /// `Some((alpha, max))` runs a PPR program instead of fixed length.
    pub ppr: Option<(f64, u32)>,
}

impl Shape {
    pub fn program(&self) -> Option<WalkProgram> {
        self.ppr.map(|(a, m)| WalkProgram::ppr(a, m))
    }

    pub fn fixed_length(&self) -> bool {
        self.ppr.is_none()
    }
}

/// Open-loop traffic: Poisson arrivals at a fixed absolute rate, one
/// connection per job, tenants drawn uniformly.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub rate_per_s: f64,
    pub tenants: &'static [u32],
    pub shape: Shape,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    /// The original-id graph paths are validated against, when the
    /// served file is relabeled.
    pub original: Option<Dataset>,
    pub residency: Residency,
    pub app: App,
    pub engine: Engine,
    /// Closed-loop tenant-0 corpus jobs over one keep-alive connection.
    pub batch: Option<Shape>,
    pub open: Option<OpenLoop>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "deepwalk_corpus",
        dataset: Dataset {
            file: "rmat21-relabeled.lrwpak",
            relabel: true,
            ..RMAT21
        },
        original: Some(RMAT21),
        residency: Residency::Mapped,
        app: App::Uniform,
        engine: Engine::Cpu,
        batch: Some(Shape {
            queries: 16384,
            length: 80,
            ppr: None,
        }),
        open: None,
    },
    Workload {
        name: "node2vec_mixed",
        dataset: Dataset {
            file: "rmat16.lrwpak",
            scale: 16,
            seed: 16,
            relabel: false,
            sharded: false,
        },
        original: None,
        residency: Residency::Heap,
        app: App::Node2Vec,
        engine: Engine::Cpu,
        batch: Some(Shape {
            queries: 8192,
            length: 80,
            ppr: None,
        }),
        open: Some(OpenLoop {
            rate_per_s: 60.0,
            tenants: &[1, 2, 3],
            shape: Shape {
                queries: 16,
                length: 80,
                ppr: None,
            },
        }),
    },
    Workload {
        name: "ppr_interactive",
        dataset: Dataset {
            file: "rmat20.lrwpak",
            scale: 20,
            seed: 20,
            relabel: false,
            sharded: false,
        },
        original: None,
        residency: Residency::Heap,
        app: App::StaticWeighted,
        engine: Engine::Cpu,
        batch: None,
        open: Some(OpenLoop {
            rate_per_s: 15.0,
            tenants: &[1],
            shape: Shape {
                queries: 16,
                length: 20,
                ppr: Some((0.15, 20)),
            },
        }),
    },
    Workload {
        name: "sharded_corpus",
        dataset: Dataset {
            file: "rmat19-walk2-compressed.lrwpak",
            scale: 19,
            seed: 19,
            relabel: false,
            sharded: true,
        },
        original: None,
        residency: Residency::Mapped,
        app: App::StaticWeighted,
        engine: Engine::Sharded,
        batch: Some(Shape {
            queries: 16384,
            length: 80,
            ppr: None,
        }),
        open: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which class of job the latency metrics cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Batch,
    Small,
}

/// One job to send: its request body and, for open-loop jobs, when it
/// is due relative to the start of the phase.
#[derive(Debug, Clone)]
pub struct Plan {
    pub class: Class,
    pub due: Duration,
    pub body: String,
    pub queries: usize,
}

impl Workload {
    pub fn datasets(&self) -> impl Iterator<Item = Dataset> {
        std::iter::once(self.dataset).chain(self.original)
    }

    /// The class whose latency the end-to-end metrics report: the small
    /// jobs where there are any, the corpus jobs otherwise.
    pub fn latency_class(&self) -> Class {
        if self.open.is_some() {
            Class::Small
        } else {
            Class::Batch
        }
    }

    /// The shape of the latency class's jobs.
    pub fn latency_shape(&self) -> Shape {
        match (self.open, self.batch) {
            (Some(o), _) => o.shape,
            (None, Some(b)) => b,
            (None, None) => unreachable!("every workload sends some traffic"),
        }
    }

    /// Whether streamed paths are fixed-length walks that
    /// `validate_path` can check hop by hop.
    pub fn validates(&self) -> bool {
        self.batch
            .iter()
            .chain(self.open.map(|o| o.shape).iter())
            .all(Shape::fixed_length)
    }

    /// The job streams for one phase of `span` (warm-up plus window):
    /// closed-loop corpus jobs (sent back to back, so `due` is unused)
    /// and the open-loop schedule, both drawn from `seed`.
    pub fn plans(&self, seed: u64, span: Duration) -> (Vec<Plan>, Vec<Plan>) {
        let mut rng = SplitMix64::new(seed);
        let batch = self.batch.map_or_else(Vec::new, |shape| {
            // Far more than a closed loop can finish in `span`.
            (0..4096)
                .map(|_| plan(Class::Batch, Duration::ZERO, 0, shape, &mut rng))
                .collect()
        });
        let mut open = Vec::new();
        if let Some(o) = self.open {
            // A Poisson process conditioned on its count: rate × span
            // arrivals at uniform random times. The offered load is then
            // the same in every run, only its burstiness varies by seed.
            let n = (o.rate_per_s * span.as_secs_f64()).round() as usize;
            let mut due: Vec<f64> = (0..n)
                .map(|_| rng.next_f64() * span.as_secs_f64())
                .collect();
            due.sort_by(f64::total_cmp);
            for t in due {
                let tenant = o.tenants[rng.gen_range(o.tenants.len() as u64) as usize];
                open.push(plan(
                    Class::Small,
                    Duration::from_secs_f64(t),
                    tenant,
                    o.shape,
                    &mut rng,
                ));
            }
        }
        (batch, open)
    }
}

fn plan(class: Class, due: Duration, tenant: u32, shape: Shape, rng: &mut SplitMix64) -> Plan {
    let job = TraceJob {
        tenant,
        weight: 1,
        queries: shape.queries,
        length: shape.program().map_or(shape.length, |p| p.max_steps()),
        // The job format carries seeds exactly up to 2^53.
        seed: rng.next_u64() >> 11,
        deadline: None,
        deadline_ms: None,
        program: shape.program(),
    };
    Plan {
        class,
        due,
        body: job_to_json(&job),
        queries: shape.queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_repeat_per_seed_and_differ_across_seeds() {
        let w = find("node2vec_mixed").unwrap();
        let span = Duration::from_secs(3);
        let (b1, o1) = w.plans(5, span);
        let (b2, o2) = w.plans(5, span);
        let (_, o3) = w.plans(6, span);
        let key = |p: &[Plan]| {
            p.iter()
                .map(|p| (p.due, p.body.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&b1), key(&b2));
        assert_eq!(key(&o1), key(&o2));
        assert_ne!(key(&o1), key(&o3));
        // Exactly rate × span arrivals, all inside the span.
        assert_eq!(
            o1.len(),
            (w.open.unwrap().rate_per_s * 3.0).round() as usize
        );
        assert!(o1.iter().all(|p| p.due < span));
        // Bodies parse back as the intended jobs.
        let job = lightrw::jobspec::parse_job(&o1[0].body).unwrap();
        assert_eq!((job.queries, job.length), (16, 80));
        assert!((1..=3).contains(&job.tenant));
    }

    #[test]
    fn ppr_bodies_carry_the_program() {
        let w = find("ppr_interactive").unwrap();
        let (batch, open) = w.plans(1, Duration::from_secs(1));
        assert!(batch.is_empty() && !w.validates());
        let job = lightrw::jobspec::parse_job(&open[0].body).unwrap();
        assert_eq!(job.program.unwrap().to_string(), "ppr:alpha=0.15,max=20");
    }
}
