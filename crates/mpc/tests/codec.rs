//! The typed-message codec (`serde::binary`) as pdc-mpc uses it: special
//! floats cross every path bit for bit, every derive shape round-trips,
//! and the decoder is total over bytes a peer might send.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Debug;

use bytes::Bytes;
use pdc_mpc::{CollectiveAlgo, Comm, MpcError, World};
use proptest::prelude::*;
use serde::binary::{self, from_slice, to_vec};
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// Allocation probe: the largest single allocation on this thread.
// ---------------------------------------------------------------------

struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// The largest allocation `f` makes on this thread.
fn largest_alloc<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

// ---------------------------------------------------------------------
// The message shapes the workspace sends, and one type per derive shape.
// ---------------------------------------------------------------------

/// An enum with a unit and a struct variant: a request-reply protocol's
/// shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum TaskMsg {
    Ready,
    Result { index: usize, score: usize },
}

/// The drug-design result's shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DrugResult {
    max_score: usize,
    best_ligands: Vec<String>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Newtype(i64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Triple(u8, Option<f64>, String);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u32,
    weights: Vec<f64>,
    tags: Vec<u64>,
    raw: Vec<u8>,
    offsets: Vec<i32>,
    label: Option<String>,
    flag: bool,
    letter: char,
    unit: Unit,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Empty,
    Wrapped(Newtype),
    Pair(i16, Vec<Triple>),
    Record { named: Named, depth: usize },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Envelope {
    shapes: Vec<Shape>,
    index: BTreeMap<String, Vec<u32>>,
    pair: (usize, Vec<f64>),
}

fn word(rng_bits: u64) -> String {
    let len = (rng_bits % 7) as usize;
    (0..len)
        .map(|i| ['a', 'z', 'é', '"', '\n', '🦀', '\\'][((rng_bits >> (8 + 3 * i)) % 7) as usize])
        .collect()
}

/// An [`Envelope`] built from random draws, so each case covers every
/// derive shape with its own field values.
fn envelope(seeds: Vec<u64>, floats: Vec<f64>) -> Envelope {
    let at = |i: usize| seeds.get(i).copied().unwrap_or(i as u64 * 7919);
    let named = |k: usize| Named {
        id: at(k) as u32,
        weights: floats.clone(),
        tags: seeds.clone(),
        raw: seeds.iter().map(|&s| s as u8).collect(),
        offsets: seeds.iter().map(|&s| s as i32).collect(),
        label: (at(k) % 3 != 0).then(|| word(at(k + 1))),
        flag: at(k) % 2 == 0,
        letter: word(at(k + 2)).chars().next().unwrap_or('x'),
        unit: Unit,
    };
    let shapes = seeds
        .iter()
        .enumerate()
        .map(|(k, &s)| match s % 4 {
            0 => Shape::Empty,
            1 => Shape::Wrapped(Newtype(s as i64)),
            2 => Shape::Pair(
                s as i16,
                vec![Triple(s as u8, floats.get(k).copied(), word(s))],
            ),
            _ => Shape::Record {
                named: named(k),
                depth: k,
            },
        })
        .collect();
    let index = seeds
        .iter()
        .map(|&s| (word(s), vec![s as u32, (s >> 32) as u32]))
        .collect();
    Envelope {
        shapes,
        index,
        pair: (at(0) as usize, floats),
    }
}

/// The binary round trip returns `value`; where the JSON round trip
/// also succeeds, both return the same value.
fn round_trips<T>(value: &T) -> Result<(), TestCaseError>
where
    T: Serialize + DeserializeOwned + PartialEq + Debug,
{
    let back: T = from_slice(&to_vec(value)).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(&back, value);
    if let Ok(json) = serde_json::from_str::<T>(&serde_json::to_string(value).unwrap()) {
        prop_assert_eq!(&json, &back);
    }
    Ok(())
}

/// Decoding `bytes` as `T` returns a value or an error, and never
/// panics; every strict prefix of a valid encoding is rejected.
fn decodes_totally<T: DeserializeOwned>(bytes: &[u8]) -> Result<(), TestCaseError> {
    let decoded = std::panic::catch_unwind(|| from_slice::<T>(bytes).is_ok());
    prop_assert!(decoded.is_ok(), "decoder panicked on {bytes:?}");
    if matches!(decoded, Ok(true)) {
        for cut in 0..bytes.len() {
            prop_assert!(
                from_slice::<T>(&bytes[..cut]).is_err(),
                "prefix {cut} of {bytes:?} decoded"
            );
        }
    }
    Ok(())
}

fn decodes_as_every_shape(bytes: &[u8]) -> Result<(), TestCaseError> {
    decodes_totally::<TaskMsg>(bytes)?;
    decodes_totally::<DrugResult>(bytes)?;
    decodes_totally::<(usize, Vec<f64>)>(bytes)?;
    decodes_totally::<Vec<String>>(bytes)?;
    decodes_totally::<Option<u64>>(bytes)?;
    decodes_totally::<()>(bytes)?;
    decodes_totally::<Envelope>(bytes)?;
    decodes_totally::<serde::Value>(bytes)
}

/// Valid encodings of the workspace's message shapes, to mutate.
fn valid_messages(seed: u64) -> Vec<Vec<u8>> {
    vec![
        to_vec(&TaskMsg::Ready),
        to_vec(&TaskMsg::Result {
            index: seed as usize,
            score: 3,
        }),
        to_vec(&DrugResult {
            max_score: 4,
            best_ligands: vec![word(seed), word(seed >> 7)],
        }),
        to_vec(&(seed as usize, vec![0.5, -1.0, seed as f64])),
        to_vec(&vec![word(seed)]),
        to_vec(&Some(seed)),
        to_vec(&()),
        to_vec(&envelope(vec![seed, seed >> 3, !seed], vec![1.5, -0.0])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_derive_shape_round_trips(
        seeds in prop::collection::vec(any::<u64>(), 0..6),
        floats in prop::collection::vec(any::<f64>(), 0..5),
    ) {
        round_trips(&envelope(seeds.clone(), floats.clone()))?;
        round_trips(&TaskMsg::Result { index: seeds.len(), score: floats.len() })?;
        round_trips(&TaskMsg::Ready)?;
        round_trips(&DrugResult { max_score: seeds.len(), best_ligands: seeds.iter().map(|&s| word(s)).collect() })?;
        round_trips(&Unit)?;
        round_trips(&Newtype(seeds.first().copied().unwrap_or(0) as i64))?;
        round_trips(&seeds.iter().map(|&s| s as i64).collect::<Vec<i64>>())?;
        round_trips(&seeds.iter().map(|&s| s as usize).collect::<Vec<usize>>())?;
        round_trips(&seeds.iter().map(|&s| (s as f32, s % 2 == 0)).collect::<Vec<_>>())?;
        round_trips(&seeds.iter().map(|&s| Some(s)).collect::<Vec<Option<u64>>>())?;
        round_trips(&seeds.first().map(|&s| [s as u16; 3]))?;
    }

    #[test]
    fn arbitrary_bytes_decode_or_fail_cleanly(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        decodes_as_every_shape(&bytes)?;
    }

    #[test]
    fn mutated_messages_decode_or_fail_cleanly(
        seed in any::<u64>(),
        edits in prop::collection::vec(any::<u64>(), 1..4),
    ) {
        for mut bytes in valid_messages(seed) {
            for e in &edits {
                let at = (*e as usize) % bytes.len();
                bytes[at] = (e >> 32) as u8;
            }
            decodes_as_every_shape(&bytes)?;
        }
    }

    #[test]
    fn valid_messages_lose_every_strict_prefix(seed in any::<u64>()) {
        for bytes in valid_messages(seed) {
            decodes_as_every_shape(&bytes)?;
        }
    }

    #[test]
    fn hostile_bytes_through_recv_and_test_are_decode_errors(
        bytes in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let payload = Bytes::from(bytes.clone());
        let direct = from_slice::<TaskMsg>(&bytes).map_err(|_| ());
        let out = World::new(2).run(|c| {
            if c.rank() == 0 {
                c.send_bytes(1, 0, payload.clone()).unwrap();
                c.send_bytes(1, 1, payload.clone()).unwrap();
                None
            } else {
                let blocking = c.recv::<TaskMsg>(0, 0);
                Some((blocking, poll::<TaskMsg>(&c, 1)))
            }
        });
        let (blocking, polled) = out[1].clone().unwrap();
        for got in [blocking, polled] {
            match got {
                Ok(msg) => prop_assert_eq!(Ok(msg), direct.clone()),
                Err(MpcError::Decode(_)) => prop_assert!(direct.is_err()),
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }
}

/// Complete an `irecv` by polling `RecvRequest::test`.
fn poll<T: DeserializeOwned>(c: &Comm, tag: i32) -> Result<T, MpcError> {
    let mut req = c.irecv::<T>(0, tag);
    loop {
        match req.test() {
            Ok(done) => return done.map(|(v, _)| v),
            Err(r) => {
                req = r;
                std::thread::yield_now();
            }
        }
    }
}

#[test]
fn huge_length_prefixes_fail_without_allocating() {
    let max = u64::MAX.to_le_bytes();
    for tag in [
        binary::SEQ,
        binary::STR,
        binary::MAP,
        binary::BYTES,
        binary::U64S,
        binary::I64S,
        binary::F64S,
    ] {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&max);
        bytes.extend_from_slice(&[0; 32]);
        let (failed, largest) = largest_alloc(|| {
            [
                from_slice::<Vec<String>>(&bytes).is_err(),
                from_slice::<String>(&bytes).is_err(),
                from_slice::<BTreeMap<String, u64>>(&bytes).is_err(),
                from_slice::<Vec<u8>>(&bytes).is_err(),
                from_slice::<Vec<u64>>(&bytes).is_err(),
                from_slice::<Vec<f64>>(&bytes).is_err(),
                from_slice::<Vec<i32>>(&bytes).is_err(),
                from_slice::<serde::Value>(&bytes).is_err(),
            ]
        });
        assert_eq!(failed, [true; 8], "tag {tag}");
        // Error messages only: nothing sized by the prefix.
        assert!(largest < 1024, "tag {tag}: allocated {largest} bytes");
    }
    // A plausible count of large elements reserves a bounded amount.
    let mut bytes = vec![binary::SEQ];
    bytes.extend_from_slice(&(1u64 << 20).to_le_bytes());
    bytes.extend(std::iter::repeat_n(binary::NULL, 1 << 20));
    let (decoded, largest) = largest_alloc(|| from_slice::<Vec<[u64; 64]>>(&bytes).is_err());
    assert!(decoded);
    assert!(largest <= 64 * 1024, "reserved {largest} bytes");
}

#[test]
fn deeply_nested_values_are_rejected() {
    let mut bytes = Vec::new();
    for _ in 0..100_000 {
        binary::write_seq_len(1, &mut bytes);
    }
    bytes.push(binary::NULL);
    assert!(from_slice::<serde::Value>(&bytes).is_err());
}

/// Sent as a value, a slice and a collective operand, special floats
/// arrive with the same bits — the JSON codec turned them into `null`.
#[test]
fn non_finite_floats_arrive_bit_identical() {
    let specials = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        5e-324,
    ];
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    for algo in [CollectiveAlgo::Linear, CollectiveAlgo::BinomialTree] {
        let out = World::new(2).with_algo(algo).run(|c| {
            let root = c.rank() == 0;
            let mut got = Vec::new();
            for &x in &specials {
                if root {
                    c.send(1, 0, &x).unwrap();
                } else {
                    got.push(c.recv::<f64>(0, 0).unwrap());
                }
                got.push(c.bcast(0, root.then_some(x)).unwrap());
            }
            got.extend(c.bcast(0, root.then(|| specials.to_vec())).unwrap());
            // Rank 1's operand reaches the root unchanged; rank 0's comes first.
            let mine = if root { Vec::new() } else { specials.to_vec() };
            let reduced = c.reduce(0, mine, |mut a, b| {
                a.extend(b);
                a
            });
            got.extend(reduced.unwrap().unwrap_or_default());
            bits(&got)
        });
        // Rank 0 got each bcast value, the bcast slice and the reduction;
        // rank 1 each sent and bcast value, then the bcast slice.
        let each_twice: Vec<f64> = specials.iter().flat_map(|&x| [x, x]).collect();
        assert_eq!(out[0], bits(&specials.repeat(3)), "{algo:?}");
        assert_eq!(
            out[1],
            bits(&[each_twice, specials.to_vec()].concat()),
            "{algo:?}"
        );
    }
}

/// `Status::len` is the size of the binary payload.
#[test]
fn status_len_counts_the_binary_payload() {
    let lens = World::new(2).run(|c| {
        if c.rank() == 0 {
            c.send(1, 0, &7u64).unwrap();
            c.send(1, 0, &TaskMsg::Ready).unwrap();
            c.send(1, 0, &TaskMsg::Result { index: 3, score: 2 })
                .unwrap();
            c.send(1, 0, &"hello").unwrap();
            c.send(1, 0, &vec![0.5f64; 4]).unwrap();
            Vec::new()
        } else {
            let mut lens = vec![c.recv_status::<u64>(0, 0).unwrap().1.len];
            lens.push(c.recv_status::<TaskMsg>(0, 0).unwrap().1.len);
            lens.push(c.recv_status::<TaskMsg>(0, 0).unwrap().1.len);
            lens.push(c.recv_status::<String>(0, 0).unwrap().1.len);
            lens.push(c.recv_status::<Vec<f64>>(0, 0).unwrap().1.len);
            lens
        }
    });
    // U64 tag + 8; VARIANT tag + u32 index; the same + two tagged u64
    // fields; STR tag + u64 length + 5; F64S tag + u64 count + 4 × 8.
    assert_eq!(lens[1], [9, 5, 5 + 2 * 9, 9 + 5, 9 + 32]);
}
