//! Synthetic DBLP dataset generator.
//!
//! The paper's DBLP input holds up to 1.5 billion narrow records (<50
//! attributes) of ten types (article, inproceedings, proceedings, …),
//! upscaled from `dblp.xml` while preserving characteristics such as the
//! average number of inproceedings per proceeding. This generator
//! reproduces that shape: a fixed type mix, small flat-ish records with a
//! nested `authors` list, `crossref` links from inproceedings to
//! proceedings, and a `persons` relation with aliases for scenario D3.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pebble_dataflow::Context;
use pebble_nested::{DataItem, Value};

/// The ten DBLP record types.
const RECORD_TYPES: [&str; 10] = [
    "article",
    "inproceedings",
    "proceedings",
    "book",
    "incollection",
    "phdthesis",
    "mastersthesis",
    "www",
    "person",
    "data",
];

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct DblpConfig {
    /// Total number of records across all types.
    pub records: usize,
    /// RNG seed.
    pub seed: u64,
    /// Average inproceedings per proceeding (preserved characteristic).
    pub inproc_per_proc: usize,
    /// Size of the author name pool.
    pub authors: usize,
}

impl Default for DblpConfig {
    fn default() -> Self {
        DblpConfig {
            records: 2000,
            seed: 42,
            inproc_per_proc: 20,
            authors: 200,
        }
    }
}

impl DblpConfig {
    /// Config with a record count and defaults otherwise.
    pub fn sized(records: usize) -> Self {
        DblpConfig {
            records,
            authors: (records / 10).clamp(20, 10_000),
            ..Default::default()
        }
    }
}

/// The generated dataset, split by record type as in the paper's setup.
#[derive(Clone, Debug, Default)]
pub struct DblpData {
    /// `article` records.
    pub articles: Vec<DataItem>,
    /// `inproceedings` records.
    pub inproceedings: Vec<DataItem>,
    /// `proceedings` records.
    pub proceedings: Vec<DataItem>,
    /// `person` records (with aliases), used by D3.
    pub persons: Vec<DataItem>,
    /// Remaining record types, kept in one miscellaneous list.
    pub other: Vec<DataItem>,
}

impl DblpData {
    /// Registers every per-type dataset in a context under its type name
    /// (plural for the three main relations).
    pub fn register(&self, ctx: &mut Context) {
        ctx.register("articles", self.articles.clone());
        ctx.register("inproceedings", self.inproceedings.clone());
        ctx.register("proceedings", self.proceedings.clone());
        ctx.register("persons", self.persons.clone());
        ctx.register("other_records", self.other.clone());
    }

    /// Total record count.
    pub fn len(&self) -> usize {
        self.articles.len()
            + self.inproceedings.len()
            + self.proceedings.len()
            + self.persons.len()
            + self.other.len()
    }

    /// True when no records were generated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Author display name (`Author N`).
pub fn author_name(k: usize) -> String {
    format!("Author {k}")
}

fn authors_bag(rng: &mut StdRng, pool: usize, max: usize) -> Value {
    let n = rng.gen_range(1..=max);
    Value::Bag(
        (0..n)
            .map(|_| {
                Value::Item(DataItem::from_fields([(
                    "name",
                    Value::str(author_name(rng.gen_range(0..pool))),
                )]))
            })
            .collect(),
    )
}

/// Generates a deterministic synthetic DBLP dataset.
pub fn generate(cfg: &DblpConfig) -> DblpData {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut data = DblpData::default();

    // Type mix: inproceedings dominate, articles second, proceedings are
    // ~1/inproc_per_proc of the inproceedings, persons a small pool, the
    // rest miscellaneous.
    let n_inproc = cfg.records * 45 / 100;
    let n_articles = cfg.records * 30 / 100;
    let n_proc = (n_inproc / cfg.inproc_per_proc).max(1);
    let n_persons = (cfg.authors / 2).max(1);
    let n_other = cfg
        .records
        .saturating_sub(n_inproc + n_articles + n_proc + n_persons);

    for p in 0..n_proc {
        data.proceedings.push(DataItem::from_fields([
            ("key", Value::str(format!("conf/c{p}"))),
            ("type", Value::str("proceedings")),
            ("title", Value::str(format!("Proc. of Conf {p}"))),
            ("year", Value::Int(2010 + (p % 10) as i64)),
            ("publisher", Value::str(format!("Publisher {}", p % 7))),
            ("isbn", Value::str(format!("978-{p:06}"))),
        ]));
    }

    for i in 0..n_inproc {
        let proc_idx = rng.gen_range(0..n_proc);
        let year = 2010 + (proc_idx % 10) as i64;
        data.inproceedings.push(DataItem::from_fields([
            ("key", Value::str(format!("conf/c{proc_idx}/paper{i}"))),
            ("type", Value::str("inproceedings")),
            ("title", Value::str(format!("Paper Title {i}"))),
            ("year", Value::Int(year)),
            ("crossref", Value::str(format!("conf/c{proc_idx}"))),
            ("authors", authors_bag(&mut rng, cfg.authors, 4)),
            ("pages", Value::str(format!("{}-{}", i % 400, i % 400 + 12))),
            ("booktitle", Value::str(format!("Conf {proc_idx}"))),
        ]));
    }

    for a in 0..n_articles {
        data.articles.push(DataItem::from_fields([
            ("key", Value::str(format!("journals/j{}/a{a}", a % 50))),
            ("type", Value::str("article")),
            ("title", Value::str(format!("Article Title {a}"))),
            ("year", Value::Int(2008 + (a % 12) as i64)),
            ("journal", Value::str(format!("Journal {}", a % 50))),
            ("volume", Value::Int((a % 40) as i64)),
            ("authors", authors_bag(&mut rng, cfg.authors, 5)),
            ("ee", Value::str(format!("https://doi.example/{a}"))),
        ]));
    }

    for k in 0..n_persons {
        let author = k * 2; // every second pool author has a person record
        let n_alias = rng.gen_range(0..3usize);
        data.persons.push(DataItem::from_fields([
            ("key", Value::str(format!("homepages/p{k}"))),
            ("type", Value::str("person")),
            ("name", Value::str(author_name(author))),
            (
                "aliases",
                Value::Bag(
                    (0..n_alias)
                        .map(|j| Value::str(format!("A. {author}-{j}")))
                        .collect(),
                ),
            ),
            ("affiliation", Value::str(format!("Institute {}", k % 23))),
        ]));
    }

    for o in 0..n_other {
        let ty = RECORD_TYPES[3 + (o % 6)]; // book..www, data
        data.other.push(DataItem::from_fields([
            ("key", Value::str(format!("{ty}/{o}"))),
            ("type", Value::str(ty)),
            ("title", Value::str(format!("{ty} item {o}"))),
            ("year", Value::Int(2000 + (o % 20) as i64)),
            ("authors", authors_bag(&mut rng, cfg.authors, 2)),
        ]));
    }

    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_nested::Path;

    #[test]
    fn deterministic_and_sized() {
        let cfg = DblpConfig::sized(1000);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.inproceedings, b.inproceedings);
        assert!(a.len() >= 900 && a.len() <= 1100);
    }

    #[test]
    fn crossref_links_resolve() {
        let d = generate(&DblpConfig::sized(500));
        let proc_keys: Vec<&str> = d
            .proceedings
            .iter()
            .filter_map(|p| p.get("key").and_then(|v| v.as_str()))
            .collect();
        for ip in &d.inproceedings {
            let cr = ip.get("crossref").unwrap().as_str().unwrap();
            assert!(proc_keys.contains(&cr), "dangling crossref {cr}");
        }
    }

    #[test]
    fn ratio_roughly_preserved() {
        let cfg = DblpConfig::sized(4000);
        let d = generate(&cfg);
        let ratio = d.inproceedings.len() / d.proceedings.len();
        assert!(
            (cfg.inproc_per_proc / 2..=cfg.inproc_per_proc * 2).contains(&ratio),
            "ratio {ratio}"
        );
    }

    #[test]
    fn authors_nested_and_persons_alias() {
        let d = generate(&DblpConfig::sized(500));
        let ip = &d.inproceedings[0];
        assert!(Path::parse("authors[1].name").eval(ip).is_some());
        assert!(d.persons.iter().any(|p| {
            p.get("aliases")
                .and_then(Value::as_collection)
                .is_some_and(|a| !a.is_empty())
        }));
    }

    #[test]
    fn register_exposes_all_sources() {
        let mut ctx = Context::new();
        generate(&DblpConfig::sized(200)).register(&mut ctx);
        for s in [
            "articles",
            "inproceedings",
            "proceedings",
            "persons",
            "other_records",
        ] {
            assert!(ctx.source(s).is_some(), "missing source {s}");
        }
    }
}
