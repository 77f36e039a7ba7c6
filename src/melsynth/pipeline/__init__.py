"""Configuration, checkpoints, pipeline commands, toy data and benchmarking."""

from ..student import synthesize_batch

from .bench import (
    BenchRow,
    bench_inputs,
    format_table,
    run_benchmark,
    spread_durations,
    write_bench_csv,
)
from .checkpoint import (
    CheckpointError,
    fnv1a_64,
    load_checkpoint,
    load_tensors,
    save_checkpoint,
    save_tensors,
)
from .config import (
    ConfigError,
    PipelineConfig,
    architecture_text,
    audio_config,
    config_to_text,
    default_config,
    load_config,
    parse_config,
)
from .toy import TOY_PHONES, make_toy_corpus, write_toy_config
from .trainers import (
    MetricsLog,
    build_student,
    build_teacher,
    evaluate_student,
    evaluate_teacher,
    load_corpus,
    load_student,
    phonemize,
    run_extract_durations,
    run_student_training,
    run_synthesize,
    run_teacher_training,
    write_pgm,
)
