//! The mixed-precision study behind Technique T2-2: INT8 quantization
//! is fine for a *trained* model but poisons training itself (the
//! paper's Table II), which is why the accelerator keeps a
//! floating-point training datapath and only narrows inference.
//!
//! ```text
//! cargo run --release --example quantization_study
//! ```

use fusion3d::arith::half::round_trip_f16;
use fusion3d::nerf::encoding::{Encoding, HashGridConfig};
use fusion3d::nerf::pipeline::{render_image, PipelineConfig};
use fusion3d::nerf::quant::{quantize_model_int8, train_with_quantization, QuantSchedule};
use fusion3d::nerf::{
    Dataset, ModelConfig, NerfModel, ProceduralScene, SamplerConfig, SyntheticScene, Trainer,
    TrainerConfig,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn model_config() -> ModelConfig {
    ModelConfig {
        grid: HashGridConfig {
            levels: 4,
            features_per_level: 2,
            log2_table_size: 11,
            base_resolution: 4,
            max_resolution: 32,
        },
        hidden_dim: 16,
        geo_feature_dim: 7,
    }
}

fn trainer_config() -> TrainerConfig {
    TrainerConfig {
        rays_per_batch: 96,
        sampler: SamplerConfig { steps_per_diagonal: 48, max_samples_per_ray: 32 },
        occupancy_resolution: 16,
        occupancy_update_interval: 24,
        occupancy_warmup: 48,
        ..TrainerConfig::default()
    }
}

fn main() {
    let scene = ProceduralScene::synthetic(SyntheticScene::Lego);
    let dataset = Dataset::from_scene(&scene, 6, 24, 0.9);
    let iterations = 280;

    // Part 1: quantization *during* training (Table II protocol).
    println!("INT8 quantization during training ({iterations} iterations):");
    for schedule in [
        QuantSchedule::Never,
        QuantSchedule::Every(iterations / 5),
        QuantSchedule::Every(iterations / 25),
        QuantSchedule::Every(1),
    ] {
        let mut rng = SmallRng::seed_from_u64(5);
        let model = NerfModel::new(model_config(), &mut rng);
        let mut train_rng = SmallRng::seed_from_u64(6);
        let result = train_with_quantization(
            model,
            &dataset,
            trainer_config(),
            schedule,
            iterations,
            &mut train_rng,
        );
        println!(
            "  quantize {:<12} -> {}",
            schedule.label(),
            if result.diverged {
                "not convergent".to_string()
            } else {
                format!("{:.2} dB", result.psnr)
            }
        );
    }

    // Part 2: quantization of the *finished* model — post-training
    // INT8 and f16 inference are nearly free, which is what lets the
    // inference datapath run narrow.
    let mut rng = SmallRng::seed_from_u64(7);
    let mut trainer = Trainer::new(NerfModel::new(model_config(), &mut rng), trainer_config());
    for _ in 0..iterations {
        trainer.step(&dataset, &mut rng);
    }
    let float_psnr = trainer.evaluate_psnr(&dataset);

    let pipeline = PipelineConfig {
        sampler: trainer.config().sampler,
        background: trainer.config().background,
        early_stop: false,
    };
    let (mut model, occupancy) = trainer.into_parts();
    // Keep pristine f32 copies for the like-for-like baseline below.
    let model_f32_grid = model.grid().params().to_vec();
    let model_f32_density = model.density_mlp().params().to_vec();
    let model_f32_color = model.color_mlp().params().to_vec();

    let mut f16_model = model.clone();
    round_trip_f16(f16_model.grid_mut().params_mut());
    round_trip_f16(f16_model.density_mlp_mut().params_mut());
    round_trip_f16(f16_model.color_mlp_mut().params_mut());
    quantize_model_int8(&mut model);

    let reference = &dataset.views()[0];
    let float_view = {
        // Re-render the same single view with the unmodified f32
        // parameters for a like-for-like comparison.
        let mut pristine = f16_model.clone();
        pristine.grid_mut().params_mut().copy_from_slice(model_f32_grid.as_slice());
        pristine.density_mlp_mut().params_mut().copy_from_slice(model_f32_density.as_slice());
        pristine.color_mlp_mut().params_mut().copy_from_slice(model_f32_color.as_slice());
        render_image_of(&pristine, &occupancy, reference, &pipeline).psnr(&reference.image)
    };
    let f16_psnr =
        render_image_of(&f16_model, &occupancy, reference, &pipeline).psnr(&reference.image);
    let int8_psnr =
        render_image_of(&model, &occupancy, reference, &pipeline).psnr(&reference.image);

    println!("\nPost-training quantization (render quality on the same held view):");
    println!("  mean PSNR over all views (f32): {float_psnr:.2} dB");
    println!("  f32-stored model:  {float_view:.2} dB");
    println!("  f16-stored model:  {f16_psnr:.2} dB (d {:+.2})", f16_psnr - float_view);
    println!("  INT8-stored model: {int8_psnr:.2} dB (d {:+.2})", int8_psnr - float_view);
    println!(
        "\nConclusion: post-training narrowing is benign, per-iteration\n\
         quantization is not — training needs floating point (Technique T2-2)."
    );
}

fn render_image_of(
    model: &NerfModel,
    occupancy: &fusion3d::nerf::OccupancyGrid,
    view: &fusion3d::nerf::dataset::View,
    pipeline: &PipelineConfig,
) -> fusion3d::nerf::Image {
    render_image(model, occupancy, &view.camera, pipeline)
}
