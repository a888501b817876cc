//! Decode-never-panics property: every wire decoder in this crate must
//! return `Ok` or a typed [`fairkm_data::wire::WireError`] on *arbitrary*
//! input — mutated valid encodings, truncations, and raw byte soup. A panic
//! (or an attempt to allocate a corrupt length prefix) fails the test.

use fairkm_data::wire::Reader;
use fairkm_data::{row, wire_io, Dataset, DatasetBuilder, FrozenEncoder, Normalization, Role};
use proptest::prelude::*;

fn sample_dataset() -> Dataset {
    let mut b = DatasetBuilder::new();
    b.numeric("x", Role::NonSensitive).unwrap();
    b.categorical("color", Role::NonSensitive, &["red", "blue"])
        .unwrap();
    b.categorical("g", Role::Sensitive, &["a", "b"]).unwrap();
    b.numeric("age", Role::Sensitive).unwrap();
    b.push_row(row![1.0, "red", "a", 30.0]).unwrap();
    b.push_row(row![3.0, "blue", "b", 50.0]).unwrap();
    b.push_row(row![5.0, "red", "a", 40.0]).unwrap();
    b.build().unwrap()
}

/// Apply a mutation plan to a valid encoding: truncate, then flip bytes.
fn mutate(mut bytes: Vec<u8>, cut_frac: u16, edits: &[(u16, u8)]) -> Vec<u8> {
    if !bytes.is_empty() {
        let keep = (cut_frac as usize * bytes.len()) / (u16::MAX as usize);
        bytes.truncate(keep.min(bytes.len()));
    }
    for &(pos, val) in edits {
        if !bytes.is_empty() {
            let i = pos as usize % bytes.len();
            bytes[i] ^= val;
        }
    }
    bytes
}

/// Run every decoder in the crate over the bytes. Reaching the end of this
/// function without panicking IS the property; results are ignored, except
/// that a successful decode must re-encode without panicking too.
fn decode_everything(bytes: &[u8]) {
    if let Ok(e) = FrozenEncoder::from_wire_bytes(bytes) {
        let _ = e.to_wire_bytes();
    }
    let _ = wire_io::get_schema(&mut Reader::new(bytes));
    let _ = wire_io::get_attribute(&mut Reader::new(bytes));
    let _ = wire_io::get_row(&mut Reader::new(bytes));
    let _ = wire_io::get_value(&mut Reader::new(bytes));
    let mut r = Reader::new(bytes);
    let _ = r.get_f64s();
    let mut r = Reader::new(bytes);
    let _ = r.get_u32s();
    let mut r = Reader::new(bytes);
    let _ = r.get_string();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn mutated_encoder_encodings_never_panic(
        cut_frac in 0u16..=u16::MAX,
        edits in proptest::collection::vec((0u16..=u16::MAX, 1u8..=255), 0..8),
    ) {
        let bytes = sample_dataset()
            .frozen_encoder(Normalization::ZScore)
            .unwrap()
            .to_wire_bytes();
        decode_everything(&mutate(bytes, cut_frac, &edits));
    }

    #[test]
    fn raw_byte_soup_never_panics(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        decode_everything(&bytes);
    }
}
