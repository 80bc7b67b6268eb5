"""Joint classification/reconstruction CNN with a from-scratch autodiff
core, deterministic training, and netpbm data tooling."""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint, to_network
from .config import RunConfig, parse_config, parse_config_text
from .data import (Dataset, Sample, load_directory, load_image,
                   resize_bilinear, stratified_folds, synth_generate,
                   write_dataset)
from .errors import ConfigError, DataError, NumericError
from .evaluation import (ConfusionMatrix, MetricsReport, compare_report,
                         confusion, evaluate, export_attention, metrics,
                         predict, render_metrics_kv)
from .gradcheck import GradcheckResult, gradcheck, run_battery, standard_battery
from .netpbm import read_netpbm, write_pgm
from .network import (ArchConfig, JointNetwork, JointOutput, build,
                      extract_attention, forward_backbone, forward_joint,
                      parameter_count, parameter_specs)
from .tensor import (Tape, Tensor, add, backward, conv2d, dense,
                     global_avg_pool, maxpool2x2, record, relu, scale,
                     sigmoid, softmax, tensor_sum, upsample2x2, zeros,
                     zeros_like)
from .training import (Adam, EpochLog, FoldSummary, KFoldResult,
                       PlateauScheduler, TrainConfig, TrainResult,
                       combined_loss, cross_entropy, kfold_train, mse,
                       train)

__version__ = "0.1.0"
