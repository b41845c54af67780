//! Seeded request streams for the reach workloads.
//!
//! Both streams follow the FDVT collection mix the service exists for:
//! 60% scalar conjunctions of 1–5 popularity-weighted interests, 25%
//! nested prefix sweeps of a cohort user's interests (the paper's LP and R
//! orders, at most 22 long), 15% sampled-index conjunctions of 2–3
//! interests. The classes follow a fixed [`PATTERN`] rather than random
//! draws, so every seed, and every warm window, has the exact mix.
//!
//! * The **cold** stream never repeats a canonical key, and no sweep is a
//!   prefix of another under the same locations, so every request misses
//!   every cache layer and the engine and index do all the work.
//! * The **warm** working set is sized so that both cache namespaces hold
//!   all of it at once: each key is placed on its cache shard and accepted
//!   only while that shard has room.

use std::collections::HashSet;

use fbsim_adplatform::targeting::TargetingSpec;
use fbsim_fdvt::FdvtDataset;
use fbsim_population::reach::CountryFilter;
use fbsim_population::{CountryCode, InterestId, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reach_api::ReachRequest;
use reach_cache::key::stable_hash;
use reach_cache::{CacheConfig, ConjunctionKey, PrefixKey};

/// The paper's nested sweeps stop at 22 interests per user.
const MAX_SWEEP: usize = 22;
/// Requests in the warm working set: ten class patterns.
pub const WARM_SET: usize = 200;
/// Candidates drawn per accepted request before a generator gives up.
const MAX_ATTEMPTS: usize = 10_000;

/// Location sets a request draws from.
const LOCATION_POOL: [&[&str]; 4] =
    [&["US"], &["ES"], &["US", "ES", "FR"], &["US", "ES", "FR", "BR"]];

/// Request class, for the mix and the per-class latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// A scalar conjunction (conjunction cache namespace).
    Scalar,
    /// A nested prefix sweep (prefix cache namespace).
    Nested,
    /// A sampled conjunction (posting-list index, no cache).
    Sampled,
}

impl Class {
    /// All classes, in report order.
    pub const ALL: [Class; 3] = [Class::Scalar, Class::Nested, Class::Sampled];
}

/// The class of each position, repeating every 20 requests: 12 scalar, 5
/// nested and 3 sampled, interleaved.
pub const PATTERN: [Class; 20] = {
    use Class::{Nested as N, Sampled as D, Scalar as S};
    [S, N, S, D, S, N, S, S, S, N, D, S, S, N, S, S, D, N, S, S]
};

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRequest {
    /// The request class.
    pub class: Class,
    /// The wire request (without id or trace context).
    pub request: ReachRequest,
    /// The country filter the server derives from the locations.
    pub filter: CountryFilter,
}

impl StreamRequest {
    /// The interests as engine ids, in request order.
    pub fn ids(&self) -> Vec<InterestId> {
        self.request.interests.iter().map(|&i| InterestId(i)).collect()
    }

    /// The server's canonical interests: sorted and deduplicated for
    /// conjunctions, request order for sweeps.
    pub fn canonical_ids(&self) -> Vec<InterestId> {
        match self.class {
            Class::Nested => self.ids(),
            Class::Scalar | Class::Sampled => {
                reach_cache::key::canonical_interests(&self.request.interests)
                    .into_iter()
                    .map(InterestId)
                    .collect()
            }
        }
    }

    /// The canonical key the service would cache or index this request
    /// under: class, location filter and canonical interests.
    fn canonical_key(&self) -> (Class, u64, Vec<u32>) {
        (self.class, self.filter.bits(), self.canonical_ids().iter().map(|i| i.0).collect())
    }

    /// The spec the server builds for this request, for the in-process
    /// oracle.
    pub fn spec(&self, with_interests: bool) -> TargetingSpec {
        let mut builder = TargetingSpec::builder();
        for code in &self.request.locations {
            let bytes = code.as_bytes();
            builder = builder.location(CountryCode([bytes[0], bytes[1]]));
        }
        if with_interests {
            builder = builder.interests(self.canonical_ids());
        }
        builder.build().expect("generated requests are valid specs")
    }
}

/// Samples interests proportional to catalog `target_audience`, so popular
/// interests are queried more, as in a real collection run.
struct PopularitySampler {
    cumulative: Vec<f64>,
    total: f64,
}

impl PopularitySampler {
    fn new(world: &World) -> Self {
        let mut cumulative = Vec::with_capacity(world.catalog().len());
        let mut total = 0.0f64;
        for interest in world.catalog().interests() {
            total += interest.target_audience.max(0.0);
            cumulative.push(total);
        }
        assert!(total > 0.0, "catalog must carry positive audience mass");
        Self { cumulative, total }
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen_range(0.0..self.total);
        self.cumulative.partition_point(|&c| c <= u) as u32
    }

    fn sample_distinct(&self, rng: &mut StdRng, k: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = Vec::with_capacity(k);
        while ids.len() < k {
            let id = self.sample(rng);
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids
    }
}

/// Draws candidate requests of the FDVT mix; `cold_stream` and `warm_set` decide
/// which candidates to keep.
struct Generator<'a> {
    world: &'a World,
    cohort: &'a FdvtDataset,
    sampler: PopularitySampler,
    rng: StdRng,
    /// Canonical keys handed out so far.
    seen: HashSet<(Class, u64, Vec<u32>)>,
    /// Every prefix of every sweep handed out, under its location filter.
    sweep_prefixes: HashSet<(u64, Vec<u32>)>,
}

impl<'a> Generator<'a> {
    fn new(world: &'a World, cohort: &'a FdvtDataset, seed: u64, domain: u64) -> Self {
        Self {
            world,
            cohort,
            sampler: PopularitySampler::new(world),
            rng: StdRng::seed_from_u64(seed ^ domain),
            seen: HashSet::new(),
            sweep_prefixes: HashSet::new(),
        }
    }

    /// A request of `class` whose canonical key was never handed out, and,
    /// for a sweep, that neither extends nor is extended by an earlier one.
    fn next(&mut self, class: Class) -> StreamRequest {
        for _ in 0..MAX_ATTEMPTS {
            let candidate = self.candidate(class);
            let key = candidate.canonical_key();
            if self.seen.contains(&key) {
                continue;
            }
            if class == Class::Nested {
                let (bits, sequence) = (key.1, &key.2);
                if self.sweep_prefixes.contains(&(bits, sequence.clone()))
                    || (1..sequence.len())
                        .any(|n| self.seen.contains(&(class, bits, sequence[..n].to_vec())))
                {
                    continue;
                }
                for n in 1..=sequence.len() {
                    self.sweep_prefixes.insert((bits, sequence[..n].to_vec()));
                }
            }
            self.seen.insert(key);
            return candidate;
        }
        panic!("no unused {class:?} request left in the world");
    }

    fn candidate(&mut self, class: Class) -> StreamRequest {
        let locations: Vec<String> = LOCATION_POOL[self.rng.gen_range(0..LOCATION_POOL.len())]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let request = match class {
            Class::Scalar => {
                let k = self.rng.gen_range(1..=5usize);
                ReachRequest::scalar(locations, self.sampler.sample_distinct(&mut self.rng, k))
            }
            Class::Sampled => {
                let k = self.rng.gen_range(2..=3usize);
                ReachRequest::sampled(locations, self.sampler.sample_distinct(&mut self.rng, k))
            }
            Class::Nested => {
                let user = &self.cohort.users[self.rng.gen_range(0..self.cohort.len())];
                let mut sequence: Vec<InterestId> =
                    user.profile.interests.iter().copied().take(MAX_SWEEP).collect();
                if self.rng.gen_bool(0.5) {
                    // LP: least popular first. R keeps the user's random
                    // materialization order.
                    let catalog = self.world.catalog();
                    sequence.sort_by(|a, b| {
                        let pop = |id: &InterestId| catalog.interest(*id).target_audience;
                        pop(a).total_cmp(&pop(b)).then(a.0.cmp(&b.0))
                    });
                }
                ReachRequest::nested(locations, sequence.iter().map(|i| i.0).collect())
            }
        };
        let mut stream = StreamRequest { class, request, filter: CountryFilter::ALL };
        let indices = stream.spec(false).location_indices();
        stream.filter =
            CountryFilter::checked_of(&indices).expect("pool countries are in the universe");
        stream
    }
}

/// A cold stream of `len` requests in which no canonical key repeats and
/// no sweep extends another.
pub fn cold_stream(
    world: &World,
    cohort: &FdvtDataset,
    seed: u64,
    len: usize,
) -> Vec<StreamRequest> {
    let mut generator = Generator::new(world, cohort, seed, 0xC01D_5EED);
    (0..len).map(|i| generator.next(PATTERN[i % PATTERN.len()])).collect()
}

/// The cache shard a request's entry lands on, or `None` for sampled
/// requests (answered from the index, not the cache).
pub fn cache_shard(request: &StreamRequest, shards: usize) -> Option<usize> {
    let ids = request.canonical_ids();
    let hash = match request.class {
        Class::Scalar => stable_hash(&ConjunctionKey::new(&ids, request.filter, None)),
        Class::Nested => stable_hash(&PrefixKey::new(&ids, request.filter)),
        Class::Sampled => return None,
    };
    Some((hash % shards as u64) as usize)
}

/// Per-shard entry budgets of the two namespaces: `(conjunction, prefix)`.
pub fn per_shard_capacity(cache: &CacheConfig) -> (usize, usize) {
    (cache.capacity.div_ceil(cache.shards), cache.prefix_capacity.div_ceil(cache.shards))
}

/// A warm working set of [`WARM_SET`] distinct requests whose cache
/// entries fit `cache` shard by shard, so a replay after one warm-up pass
/// neither misses nor evicts.
pub fn warm_set(
    world: &World,
    cohort: &FdvtDataset,
    seed: u64,
    cache: &CacheConfig,
) -> Vec<StreamRequest> {
    let (conj_cap, prefix_cap) = per_shard_capacity(cache);
    let mut conj_load = vec![0usize; cache.shards];
    let mut prefix_load = vec![0usize; cache.shards];
    let mut generator = Generator::new(world, cohort, seed, 0x3A2A_5EED);
    let mut set = Vec::with_capacity(WARM_SET);
    for i in 0..WARM_SET {
        let class = PATTERN[i % PATTERN.len()];
        let fits = (0..MAX_ATTEMPTS).find_map(|_| {
            let candidate = generator.next(class);
            let (load, cap) = match class {
                Class::Scalar => (&mut conj_load, conj_cap),
                Class::Nested => (&mut prefix_load, prefix_cap),
                Class::Sampled => return Some(candidate),
            };
            let shard = cache_shard(&candidate, cache.shards).expect("cached classes have a shard");
            (load[shard] < cap).then(|| {
                load[shard] += 1;
                candidate
            })
        });
        set.push(fits.expect("the cache has room for the warm working set"));
    }
    set
}

/// Per-shard occupancy of a request set: `(conjunction, prefix)` loads.
pub fn shard_loads(requests: &[StreamRequest], shards: usize) -> (Vec<usize>, Vec<usize>) {
    let mut conj = vec![0usize; shards];
    let mut prefix = vec![0usize; shards];
    let mut seen = HashSet::new();
    for request in requests {
        if !seen.insert(request.canonical_key()) {
            continue;
        }
        match (request.class, cache_shard(request, shards)) {
            (Class::Scalar, Some(s)) => conj[s] += 1,
            (Class::Nested, Some(s)) => prefix[s] += 1,
            _ => {}
        }
    }
    (conj, prefix)
}

/// Requests per class in one [`PATTERN`]: scalar, nested, sampled.
pub fn pattern_mix() -> [usize; 3] {
    class_counts_of(PATTERN.iter().copied())
}

fn class_counts_of(classes: impl Iterator<Item = Class>) -> [usize; 3] {
    let mut counts = [0usize; 3];
    for class in classes {
        counts[Class::ALL.iter().position(|c| *c == class).expect("known class")] += 1;
    }
    counts
}

/// Counts per class.
pub fn class_counts(requests: &[StreamRequest]) -> [usize; 3] {
    class_counts_of(requests.iter().map(|r| r.class))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_fdvt::dataset::CohortConfig;
    use fbsim_population::WorldConfig;
    use std::sync::OnceLock;

    /// The wire bytes of a stream, for the determinism self-test.
    pub fn stream_bytes(requests: &[StreamRequest]) -> Vec<u8> {
        requests.iter().flat_map(|r| reach_api::proto::encode(&r.request)).collect()
    }

    fn fixture() -> &'static (World, FdvtDataset) {
        static FIX: OnceLock<(World, FdvtDataset)> = OnceLock::new();
        FIX.get_or_init(|| {
            let world = World::generate(WorldConfig::test_scale(7)).expect("test world");
            let cohort = FdvtDataset::generate(
                &world,
                CohortConfig { size: 239, seed: 7, demographic_effects: true },
            );
            (world, cohort)
        })
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        let (world, cohort) = fixture();
        let a = stream_bytes(&cold_stream(world, cohort, 11, 600));
        let b = stream_bytes(&cold_stream(world, cohort, 11, 600));
        let c = stream_bytes(&cold_stream(world, cohort, 12, 600));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let cache = CacheConfig::default();
        assert_eq!(
            stream_bytes(&warm_set(world, cohort, 11, &cache)),
            stream_bytes(&warm_set(world, cohort, 11, &cache))
        );
    }

    #[test]
    fn cold_streams_repeat_no_canonical_key_and_extend_no_sweep() {
        let (world, cohort) = fixture();
        let stream = cold_stream(world, cohort, 5, 2_000);
        let keys: HashSet<_> = stream.iter().map(StreamRequest::canonical_key).collect();
        assert_eq!(keys.len(), stream.len());
        // Permuted spellings of one conjunction are one key.
        let scalar: Vec<_> = stream.iter().filter(|r| r.class == Class::Scalar).collect();
        let mut permuted = scalar[0].clone();
        permuted.request.interests.reverse();
        assert_eq!(permuted.canonical_key(), scalar[0].canonical_key());
        let sweeps: Vec<_> = stream.iter().filter(|r| r.class == Class::Nested).collect();
        for a in &sweeps {
            for b in &sweeps {
                let (ka, kb) = (a.canonical_key(), b.canonical_key());
                if ka != kb && ka.1 == kb.1 {
                    assert!(!kb.2.starts_with(&ka.2), "{ka:?} is a prefix of {kb:?}");
                }
            }
        }
        assert_eq!(pattern_mix(), [12, 5, 3], "60% scalar, 25% nested, 15% sampled");
        assert_eq!(class_counts(&stream), pattern_mix().map(|n| n * 100));
    }

    #[test]
    fn warm_set_fits_per_shard_capacity() {
        let (world, cohort) = fixture();
        let cache = CacheConfig::default();
        let set = warm_set(world, cohort, 3, &cache);
        assert_eq!(set.len(), WARM_SET);
        let (conj_cap, prefix_cap) = per_shard_capacity(&cache);
        assert_eq!(prefix_cap, 8, "64 prefix entries over 8 shards");
        let (conj, prefix) = shard_loads(&set, cache.shards);
        assert!(conj.iter().all(|&n| n <= conj_cap), "{conj:?}");
        assert!(prefix.iter().all(|&n| n <= prefix_cap), "{prefix:?}");
        assert!(prefix.iter().sum::<usize>() > WARM_SET / 8, "the set holds sweeps: {prefix:?}");
    }
}
