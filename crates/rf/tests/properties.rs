//! Property-based tests for the RF substrate.

use mindful_rf::linkbudget::LinkBudget;
use mindful_rf::modem::Modem;
use mindful_rf::modulation::Modulation;
use mindful_rf::packet::{crc16, depacketize, packetize, packetize_into, PACKET_MAGIC};
use mindful_rf::qfunc::{from_db, q, q_inv, to_db};
use mindful_rf::RfError;
use proptest::prelude::*;

proptest! {
    #[test]
    fn q_is_a_probability(x in -30.0_f64..30.0) {
        let p = q(x);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn q_complementarity(x in -8.0_f64..8.0) {
        // Q(x) + Q(−x) = 1.
        let sum = q(x) + q(-x);
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }

    #[test]
    fn q_inverse_round_trip(exp in -12.0_f64..-0.5) {
        let p = 10.0_f64.powf(exp);
        let x = q_inv(p);
        prop_assert!((q(x).ln() - p.ln()).abs() < 1e-5);
    }

    #[test]
    fn db_round_trip(v in 1e-9_f64..1e9) {
        prop_assert!((from_db(to_db(v)) / v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ber_monotone_in_ebn0(k in 1_u8..10, lo in 0.1_f64..100.0, mult in 1.01_f64..10.0) {
        let modulation = Modulation::qam(k).unwrap();
        let hi = lo * mult;
        prop_assert!(modulation.ber(hi) <= modulation.ber(lo) + 1e-15);
    }

    #[test]
    fn ber_monotone_in_constellation_size(k in 2_u8..12, ebn0 in 1.0_f64..1000.0) {
        // Bigger square constellations of the same parity are never more
        // robust at the same Eb/N0, within the union-bound approximation's
        // validity region (BER below a few percent). Adjacent odd/even
        // orders — and the near-0.5 saturation region — can cross slightly
        // because of the approximation's prefactor.
        let small = Modulation::qam(k).unwrap().ber(ebn0);
        prop_assume!(small < 0.05);
        let big = Modulation::qam(k + 2).unwrap().ber(ebn0);
        prop_assert!(big >= small * (1.0 - 1e-9), "k={k}: {big} < {small}");
    }

    #[test]
    fn required_ebn0_monotone_in_target(k in 1_u8..10, e1 in -10.0_f64..-2.0, delta in 0.5_f64..4.0) {
        let modulation = Modulation::qam(k).unwrap();
        let strict = 10.0_f64.powf(e1 - delta);
        let loose = 10.0_f64.powf(e1);
        let need_strict = modulation.required_ebn0(strict).unwrap();
        let need_loose = modulation.required_ebn0(loose).unwrap();
        prop_assert!(need_strict >= need_loose);
    }

    #[test]
    fn link_energy_scales_inverse_with_efficiency(
        eta1 in 0.01_f64..1.0,
        eta2 in 0.01_f64..1.0,
        k in 1_u8..8,
    ) {
        let link = LinkBudget::paper_nominal();
        let modulation = Modulation::qam(k).unwrap();
        let e1 = link.energy_per_bit(modulation, eta1).unwrap().joules();
        let e2 = link.energy_per_bit(modulation, eta2).unwrap().joules();
        prop_assert!((e1 * eta1 / (e2 * eta2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn modem_round_trips_without_noise(
        seed in 0_u64..u64::MAX,
        k in prop::sample::select(vec![1_u8, 2, 4, 6, 8]),
        len in 1_usize..512,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bits: Vec<bool> = (0..len).map(|_| rng.random()).collect();
        let modem = Modem::new(Modulation::qam(k).unwrap(), 1.0).unwrap();
        let symbols = modem.modulate(&bits);
        let back = modem.demodulate(&symbols);
        prop_assert_eq!(&back[..bits.len()], &bits[..]);
    }

    #[test]
    fn packets_round_trip(
        seq in 0_u16..u16::MAX,
        bits in 1_u8..=16,
        len in 1_usize..256,
        seed in 0_u64..u64::MAX,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let limit: u16 = if bits == 16 { u16::MAX } else { (1 << bits) - 1 };
        let samples: Vec<u16> = (0..len).map(|_| rng.random::<u16>() & limit).collect();
        let wire = packetize(seq, &samples, bits).unwrap();
        let frame = depacketize(&wire).unwrap();
        prop_assert_eq!(frame.sequence, seq);
        prop_assert_eq!(frame.sample_bits, bits);
        prop_assert_eq!(frame.samples, samples);
    }

    #[test]
    fn single_bit_flips_never_pass_crc(
        len in 1_usize..64,
        seed in 0_u64..u64::MAX,
        flip_bit in 0_usize..4096,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let samples: Vec<u16> = (0..len).map(|_| rng.random::<u16>() & 0x3FF).collect();
        let wire = packetize(1, &samples, 10).unwrap();
        let bit = flip_bit % (wire.len() * 8);
        let mut bad = wire.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(depacketize(&bad).is_err());
    }

    #[test]
    fn crc_detects_any_prefix_change(data in prop::collection::vec(any::<u8>(), 1..128)) {
        let base = crc16(&data);
        let mut changed = data.clone();
        changed[0] ^= 0x01;
        prop_assert_ne!(base, crc16(&changed));
    }
}

/// The byte-at-a-time packer the word-wide one replaced, kept as the
/// oracle: header, MSB-first payload pushed one byte at a time through
/// a 32-bit accumulator, CRC trailer.
fn oracle_packetize(sequence: u16, samples: &[u16], sample_bits: u8) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&PACKET_MAGIC.to_be_bytes());
    out.extend_from_slice(&sequence.to_be_bytes());
    out.extend_from_slice(&(samples.len() as u16).to_be_bytes());
    out.push(sample_bits);
    let mut acc: u32 = 0;
    let mut acc_bits: u32 = 0;
    for &s in samples {
        acc = (acc << sample_bits) | u32::from(s);
        acc_bits += u32::from(sample_bits);
        while acc_bits >= 8 {
            acc_bits -= 8;
            out.push(((acc >> acc_bits) & 0xFF) as u8);
        }
    }
    if acc_bits > 0 {
        out.push(((acc << (8 - acc_bits)) & 0xFF) as u8);
    }
    let crc = crc16(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

/// SplitMix64 step, for reproducible sample patterns.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sample_limit(bits: u8) -> u16 {
    if bits == 16 {
        u16::MAX
    } else {
        (1 << bits) - 1
    }
}

#[test]
fn word_wide_packer_matches_the_bytewise_oracle() {
    let mut state = 0x9ACC_u64;
    let mut out = vec![0xEE; 3];
    for bits in 1..=16_u8 {
        let limit = sample_limit(bits);
        for channels in 1..=67_usize {
            let patterns: [Vec<u16>; 4] = [
                (0..channels)
                    .map(|_| splitmix(&mut state) as u16 & limit)
                    .collect(),
                vec![limit; channels],
                vec![0; channels],
                (0..channels)
                    .map(|c| if c % 2 == 0 { limit } else { 0 })
                    .collect(),
            ];
            for samples in &patterns {
                let seq = splitmix(&mut state) as u16;
                let expected = oracle_packetize(seq, samples, bits);
                packetize_into(seq, samples, bits, &mut out).unwrap();
                assert_eq!(out, expected, "{bits} bits, {channels} channels");
                assert_eq!(depacketize(&out).unwrap().samples, *samples);
            }
        }
    }
}

#[test]
fn word_wide_packer_names_the_first_overflowing_sample() {
    let mut state = 0x0BAD_u64;
    for bits in 1..=15_u8 {
        let limit = sample_limit(bits);
        for channels in [1_usize, 2, 7, 33, 67] {
            let mut samples: Vec<u16> = (0..channels)
                .map(|_| splitmix(&mut state) as u16 & limit)
                .collect();
            let first = splitmix(&mut state) as usize % channels;
            samples[first] = limit + 1;
            // A larger offender later on must not be the one named.
            if first + 1 < channels {
                samples[channels - 1] = u16::MAX;
            }
            let mut out = vec![0xEE; 5];
            let err = packetize_into(3, &samples, bits, &mut out).unwrap_err();
            match err {
                RfError::InvalidParameter {
                    name: "sample value",
                    value,
                } => assert_eq!(value, f64::from(limit + 1), "{bits} bits, {channels} ch"),
                other => panic!("unexpected error {other:?}"),
            }
            assert!(out.is_empty(), "a rejected frame leaves `out` cleared");
        }
    }
}
